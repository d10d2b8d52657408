#include "core/joint.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/objective.hpp"
#include "profile/latency_model.hpp"
#include "sched/queueing.hpp"
#include "sched/shares.hpp"
#include "surgery/partition.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace scalpel {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Subsample clean cuts to keep the per-device surgery search bounded: keep
/// the earliest cut (offload-everything), the minimum-activation cut, and an
/// even spread by depth.
std::vector<Graph::CutPoint> candidate_cuts(const Graph& graph,
                                            std::size_t max_cuts) {
  auto cuts = graph.clean_cuts();
  if (cuts.size() <= max_cuts) return cuts;
  std::vector<bool> keep(cuts.size(), false);
  keep.front() = true;
  std::size_t min_act = 0;
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    if (cuts[i].activation_bytes < cuts[min_act].activation_bytes) min_act = i;
  }
  keep[min_act] = true;
  for (std::size_t k = 0; k < max_cuts; ++k) {
    const std::size_t idx =
        k * (cuts.size() - 1) / (max_cuts - 1);
    keep[idx] = true;
  }
  std::vector<Graph::CutPoint> out;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    if (keep[i]) out.push_back(cuts[i]);
  }
  return out;
}

/// Per-profile latency cache reused across every cut considered for one
/// device: per-layer backbone latencies plus each exit head's whole-graph
/// latency. range() sums the cached values in the same node order as
/// LatencyModel::range_latency, so cost tables built from the cache are
/// bit-identical to ones built from scratch — only the repeated roofline
/// arithmetic per node (the surgery search's dominant cost) is hoisted.
struct ProfileCosts {
  std::vector<double> layer;  // index = node id
  std::vector<double> head;   // index = exit candidate

  double range(NodeId after, NodeId upto) const {
    double total = 0.0;
    for (NodeId v = after + 1; v <= upto; ++v) {
      total += layer[static_cast<std::size_t>(v)];
    }
    return total;
  }
};

ProfileCosts profile_costs(const Graph& graph,
                           const std::vector<ExitCandidate>& candidates,
                           const ComputeProfile& profile) {
  ProfileCosts c;
  c.layer = LatencyModel::per_layer(graph, profile);
  c.head.reserve(candidates.size());
  for (const auto& cand : candidates) {
    c.head.push_back(LatencyModel::graph_latency(cand.head, profile));
  }
  return c;
}

/// Builds the generalized exit-setting cost table for a given partition cut:
/// segments and heads priced on their side of the cut, upload charged to the
/// segment that crosses it. cut < 0 means device-only. The upload price
/// includes the M/D/1 queueing inflation at the device's *full* arrival rate
/// — a conservative bound (exits only thin the offloaded stream) that steers
/// the DP away from cuts whose uploads cannot be sustained.
ExitCostTable build_cost_table(const Graph& graph,
                               const std::vector<ExitCandidate>& candidates,
                               NodeId cut, std::int64_t cut_bytes,
                               const ProfileCosts& device,
                               const ProfileCosts& server_slice,
                               double bandwidth, double rtt,
                               double arrival_rate) {
  const bool device_only = cut < 0;
  ExitCostTable t;
  t.segment.resize(candidates.size(), 0.0);
  t.head.resize(candidates.size(), 0.0);
  double upload = 0.0;
  if (!device_only) {
    const double s_up = static_cast<double>(cut_bytes) / bandwidth;
    const double inflated = queueing::md1_sojourn(arrival_rate, s_up);
    // Unsustainable uploads get a large finite penalty (an infinite label
    // would poison the DP arithmetic when multiplied by a zero reach).
    upload = (std::isfinite(inflated) ? inflated : 1e9) + rtt;
  }

  bool crossed = false;
  auto stretch_cost = [&](NodeId from, NodeId to) {
    if (device_only || to <= cut) {
      return device.range(from, to);
    }
    // This stretch ends past the cut: charge the upload exactly once, on
    // the first crossing (including a cut at the stretch's start node).
    double cost = 0.0;
    if (from < cut) {
      cost += device.range(from, cut);
    }
    if (!crossed) {
      cost += upload;
      crossed = true;
    }
    cost += server_slice.range(std::max(from, cut), to);
    return cost;
  };

  NodeId prev = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const NodeId attach = candidates[i].attach;
    t.segment[i] = stretch_cost(prev, attach);
    const bool head_on_server = !device_only && attach > cut;
    t.head[i] = head_on_server ? server_slice.head[i] : device.head[i];
    prev = attach;
  }
  t.tail = stretch_cost(prev, graph.output());
  return t;
}

struct SurgeryOutcome {
  SurgeryPlan plan;
  double cost = kInf;
  bool feasible = false;      // a queueing-stable, accuracy-feasible plan
  std::size_t evaluations = 0;
};

/// One cut's proposal: the DP's exit policy for it, scored by the queueing
/// evaluator at the grant it was priced under.
struct Proposal {
  SurgeryPlan plan;
  bool feasible = false;  // the DP met the accuracy floor
  bool stable = false;
  double predicted = kInf;   // evaluate_device latency
  double table_cost = kInf;  // the DP's cost-table latency
};

/// The surgery DP's options for one device.
ExitSettingOptions surgery_dp_options(const Device& dev,
                                      const JointOptions& opts) {
  ExitSettingOptions es;
  es.min_accuracy = dev.min_accuracy;
  es.theta_grid = opts.theta_grid;
  es.max_exits = opts.enable_exits ? opts.max_exits : 0;
  es.coverage_bins = opts.dp_coverage_bins;
  es.difficulty = dev.difficulty;
  return es;
}

/// Per-device surgery search. For every candidate cut (plus device-only) the
/// generalized exit-setting DP proposes the best exit policy for that cut;
/// the proposals are then scored with the *true* objective — the three-stage
/// queueing evaluator at the device's current resource grant — so a cut
/// whose device-side work cannot sustain the arrival rate is rejected even
/// if its raw service latency looks attractive. The device-only proposal
/// reads nothing but the device, so it is made once per solve and kept in
/// `device_only` for the later rounds.
SurgeryOutcome best_surgery(const ProblemInstance& instance, DeviceId id,
                            ServerId server, double share, double bandwidth,
                            const std::vector<Graph::CutPoint>& cuts,
                            const ProfileCosts& dev_costs,
                            const JointOptions& opts,
                            const ExitLattice& lattice,
                            ExitSettingWorkspace& workspace,
                            std::optional<Proposal>& device_only) {
  const auto& dev = instance.topology().device(id);
  const auto& bundle = instance.bundle_for(id);
  const ExitSettingOptions es = surgery_dp_options(dev, opts);

  SurgeryOutcome best;
  SurgeryOutcome best_unstable;  // least-bad fallback if nothing is stable

  auto propose = [&](NodeId cut, std::int64_t cut_bytes,
                     const ProfileCosts& slice_costs, double bw, double rtt,
                     bool quantize) {
    // Quantized uploads ship 1/4 of the activation plus the scale word.
    const std::int64_t wire_bytes =
        quantize && cut >= 0 ? cut_bytes / 4 + 4 : cut_bytes;
    const ExitCostTable table =
        build_cost_table(bundle.graph, bundle.candidates, cut, wire_bytes,
                         dev_costs, slice_costs, bw, rtt, dev.arrival_rate);
    const ExitSettingResult r =
        dp_exit_setting_costs(bundle.graph, bundle.candidates, bundle.accuracy,
                              table, es, lattice, workspace);
    Proposal p;
    best.evaluations += r.evaluations;
    if (!r.feasible) return p;
    p.feasible = true;
    p.table_cost = r.expected_latency;
    p.plan.policy = r.policy;
    p.plan.device_only = cut < 0;
    p.plan.partition_after = cut < 0 ? 0 : cut;
    p.plan.quantize_upload = quantize && cut >= 0;

    DeviceDecision dd;
    dd.plan = p.plan;
    if (!p.plan.device_only) {
      dd.server = server;
      dd.compute_share = std::min(1.0, share);
      dd.bandwidth = bw;
    }
    const DevicePrediction pred = evaluate_device(instance, id, dd);
    p.stable = pred.stable;
    p.predicted = pred.expected_latency;
    return p;
  };
  auto offer = [&](const Proposal& p) {
    if (!p.feasible) return;
    if (p.stable && p.predicted < best.cost) {
      best.cost = p.predicted;
      best.feasible = true;
      best.plan = p.plan;
    } else if (!p.stable && p.table_cost < best_unstable.cost) {
      best_unstable.cost = p.table_cost;
      best_unstable.plan = p.plan;
    }
  };

  // Device-only option (the slice-cost argument is unused for cut < 0).
  if (!device_only) device_only = propose(-1, 0, dev_costs, 1.0, 0.0, false);
  offer(*device_only);

  if (server >= 0 && share > 0.0 && bandwidth > 0.0) {
    const auto slice =
        instance.topology().server(server).compute.scaled(std::min(1.0, share));
    // One latency sweep for the scaled server, shared by every cut below —
    // previously recomputed inside each of the ~2x16 cost tables.
    const ProfileCosts slice_costs =
        profile_costs(bundle.graph, bundle.candidates, slice);
    const double rtt = instance.topology().path_rtt(id, server);
    const double cell_capacity =
        instance.topology().cell(dev.cell).bandwidth;
    for (const auto& cut : cuts) {
      // Bandwidth is negotiable across rounds: evaluate the cut at no less
      // than its upload-stability minimum (25% headroom), capped by the
      // cell. If the plan is adopted, the Kleinrock bandwidth step grants
      // at least that much whenever the cell can sustain it in aggregate.
      const double stability_bw =
          1.25 * dev.arrival_rate * static_cast<double>(cut.activation_bytes);
      const double bw_eval =
          std::min(std::max(bandwidth, stability_bw), cell_capacity);
      offer(propose(cut.after, cut.activation_bytes, slice_costs, bw_eval, rtt,
                    false));
      if (opts.enable_quantized_upload) {
        const double q_stability_bw =
            1.25 * dev.arrival_rate *
            static_cast<double>(cut.activation_bytes / 4 + 4);
        const double q_bw =
            std::min(std::max(bandwidth, q_stability_bw), cell_capacity);
        offer(propose(cut.after, cut.activation_bytes, slice_costs, q_bw, rtt,
                      true));
      }
    }
  }
  if (!best.feasible && std::isfinite(best_unstable.cost)) {
    // Under genuine overload return the least-bad plan; the allocation step
    // and load shedding deal with the residual instability.
    best_unstable.evaluations = best.evaluations;
    best_unstable.feasible = true;
    return best_unstable;
  }
  return best;
}

/// Neurosurgeon-style frozen plan for the enable_surgery=false ablation.
SurgeryPlan frozen_partition_plan(const ProblemInstance& instance, DeviceId id,
                                  ServerId server, double share,
                                  double bandwidth) {
  const auto& dev = instance.topology().device(id);
  const auto& bundle = instance.bundle_for(id);
  LinkSpec link;
  link.bandwidth = bandwidth;
  link.rtt = instance.topology().path_rtt(id, server);
  const auto choice = optimal_partition(
      bundle.graph, dev.compute,
      instance.topology().server(server).compute.scaled(std::min(1.0, share)),
      link);
  SurgeryPlan plan;
  plan.device_only = choice.device_only;
  plan.partition_after = choice.device_only ? 0 : choice.cut_after;
  return plan;
}

/// Scalar score the round selection minimizes (lower = better).
double round_score(const ProblemInstance& instance, const Decision& d,
                   JointObjective objective) {
  switch (objective) {
    case JointObjective::kMeanLatency:
      return d.mean_latency;
    case JointObjective::kDeadlineSatisfaction: {
      // Maximize satisfaction; break ties toward lower (finite) latency.
      const double sat = predicted_deadline_satisfaction(instance, d);
      const double latency_tiebreak =
          std::isfinite(d.mean_latency) ? std::min(d.mean_latency, 1e3) : 1e3;
      return -sat + 1e-6 * latency_tiebreak;
    }
  }
  return d.mean_latency;
}

}  // namespace

JointOptimizer::JointOptimizer(JointOptions opts) : opts_(std::move(opts)) {}

Decision JointOptimizer::optimize(const ProblemInstance& instance) const {
  return optimize(instance, nullptr);
}

Decision JointOptimizer::optimize(const ProblemInstance& instance,
                                  JointReport* report) const {
  const auto t0 = std::chrono::steady_clock::now();
  const auto& topo = instance.topology();
  const std::size_t n = topo.devices().size();
  const std::size_t m = topo.servers().size();

  // ---- Initial allocation: equal bandwidth split, rate-aware round robin
  // over servers, equal compute shares.
  std::vector<double> bandwidth(n, 0.0);
  for (const auto& cell : topo.cells()) {
    const auto members = topo.devices_in_cell(cell.id);
    for (DeviceId d : members) {
      bandwidth[static_cast<std::size_t>(d)] =
          cell.bandwidth / static_cast<double>(members.size());
    }
  }
  std::vector<int> server_of(n, 0);
  {
    // Capacity-aware greedy: each device lands on the server with the most
    // spare capacity per committed arrival rate.
    std::vector<double> committed(m, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t best_j = 0;
      double best_score = -kInf;
      for (std::size_t j = 0; j < m; ++j) {
        const double score =
            topo.server(static_cast<ServerId>(j)).compute.peak_flops /
            (committed[j] + topo.device(static_cast<DeviceId>(i)).arrival_rate);
        if (score > best_score) {
          best_score = score;
          best_j = j;
        }
      }
      server_of[i] = static_cast<int>(best_j);
      committed[best_j] += topo.device(static_cast<DeviceId>(i)).arrival_rate;
    }
  }
  auto equal_shares = [&](const std::vector<int>& assign,
                          const std::vector<bool>& offloads) {
    std::vector<std::size_t> count(m, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (offloads[i]) ++count[static_cast<std::size_t>(assign[i])];
    }
    std::vector<double> share(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (offloads[i]) {
        share[i] = 1.0 / static_cast<double>(
                             count[static_cast<std::size_t>(assign[i])]);
      }
    }
    return share;
  };
  std::vector<bool> offloads(n, true);
  std::vector<double> share = equal_shares(server_of, offloads);

  // ---- Frozen surgery for the allocation-only ablation.
  std::vector<SurgeryPlan> plans(n);
  if (!opts_.enable_surgery) {
    for (std::size_t i = 0; i < n; ++i) {
      plans[i] = frozen_partition_plan(instance, static_cast<DeviceId>(i),
                                       server_of[i], share[i], bandwidth[i]);
    }
  }

  // Round-invariant per-device caches for the surgery search: the candidate
  // cut list, the device-profile latency sweep, the exit-setting DP's
  // cost-independent lattice (one per bundle and difficulty) and the
  // device-only proposal never change across the alternation's rounds. They
  // and the DP's buffers are shared by every cut and round of this solve
  // and freed with it.
  std::vector<std::vector<Graph::CutPoint>> device_cuts(n);
  std::vector<ProfileCosts> device_costs(n);
  ExitLatticeSet lattices;
  std::vector<const ExitLattice*> device_lattice(n, nullptr);
  ExitSettingWorkspace dp_workspace;
  std::vector<std::optional<Proposal>> device_only(n);
  // best_surgery reads nothing that changes between rounds except the
  // device's grant, so a device whose grant did not move reuses its last
  // outcome.
  struct SurgeryMemo {
    ServerId server;
    double share;
    double bandwidth;
    SurgeryOutcome outcome;
  };
  std::vector<std::optional<SurgeryMemo>> last_surgery(n);
  if (opts_.enable_surgery) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<DeviceId>(i);
      const auto& bundle = instance.bundle_for(id);
      device_cuts[i] = candidate_cuts(bundle.graph, /*max_cuts=*/16);
      device_costs[i] =
          profile_costs(bundle.graph, bundle.candidates, topo.device(id).compute);
      device_lattice[i] =
          &lattices.get(bundle.candidates, bundle.accuracy,
                        surgery_dp_options(topo.device(id), opts_));
    }
  }

  // The allocation step's per-(device, server) plan statistics depend only
  // on the surgery plan (the fields read are link-independent), so they are
  // memoized on the plan and reused when the alternation revisits it.
  struct AllocStats {
    double p_off = 0.0;
    std::int64_t up_bytes = 0;
    std::vector<double> s_cond;  // per server
  };
  auto plan_signature = [](const SurgeryPlan& p) {
    std::string s = p.device_only ? "L" : "O";
    s += std::to_string(p.partition_after);
    s += p.quantize_upload ? "q" : "f";
    for (const auto& e : p.policy.exits) {
      s += ':';
      s += std::to_string(e.candidate);
      s += '@';
      s += std::to_string(e.theta);
    }
    return s;
  };
  std::vector<std::unordered_map<std::string, AllocStats>> alloc_cache(n);

  Decision best;
  best.scheme = "joint";
  double best_obj = kInf;
  std::size_t surgery_evals = 0;
  std::vector<double> history;

  auto snapshot = [&]() {
    Decision d;
    d.scheme = "joint";
    d.per_device.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto& dd = d.per_device[i];
      dd.plan = plans[i];
      if (!dd.plan.device_only) {
        dd.server = server_of[i];
        dd.compute_share = std::min(1.0, share[i]);
        dd.bandwidth = bandwidth[i];
      }
    }
    evaluate_decision(instance, d);
    return d;
  };

  for (std::size_t iter = 0; iter < opts_.max_iterations; ++iter) {
    // ---- Surgery step. Damped: a device adopts the new plan only if it
    // beats its current plan under the current grants — prevents the
    // surgery/allocation alternation from flip-flopping.
    if (opts_.enable_surgery) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<DeviceId>(i);
        auto& memo = last_surgery[i];
        if (!memo || memo->server != server_of[i] || memo->share != share[i] ||
            memo->bandwidth != bandwidth[i]) {
          memo = SurgeryMemo{
              server_of[i], share[i], bandwidth[i],
              best_surgery(instance, id, server_of[i], share[i], bandwidth[i],
                           device_cuts[i], device_costs[i], opts_,
                           *device_lattice[i], dp_workspace, device_only[i])};
          surgery_evals += memo->outcome.evaluations;
        }
        const SurgeryOutcome& outcome = memo->outcome;
        if (!outcome.feasible) continue;
        if (iter == 0) {
          plans[i] = outcome.plan;
          continue;
        }
        DeviceDecision current;
        current.plan = plans[i];
        if (!current.plan.device_only) {
          current.server = server_of[i];
          current.compute_share = std::clamp(share[i], 1e-9, 1.0);
          // Same negotiable-bandwidth rule the proposals were scored under,
          // so incumbent and challenger are compared on equal terms.
          const auto& dev = topo.device(id);
          double cut_bytes = static_cast<double>(
              instance.bundle_for(id)
                  .graph.node(current.plan.partition_after)
                  .out_shape.bytes());
          if (current.plan.quantize_upload) cut_bytes = cut_bytes / 4 + 4;
          const double stability_bw = 1.25 * dev.arrival_rate * cut_bytes;
          current.bandwidth = std::min(
              std::max(std::max(bandwidth[i], 1.0), stability_bw),
              topo.cell(dev.cell).bandwidth);
        }
        const auto current_pred = evaluate_device(instance, id, current);
        if (!current_pred.stable ||
            outcome.cost < current_pred.expected_latency) {
          plans[i] = outcome.plan;
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) offloads[i] = !plans[i].device_only;

    // ---- Allocation step.
    if (opts_.enable_allocation) {
      // Per-device offload statistics under full-speed servers.
      std::vector<double> p_off(n, 0.0);
      std::vector<std::int64_t> up_bytes(n, 0);
      std::vector<std::vector<double>> s_cond(n);  // per server
      for (std::size_t i = 0; i < n; ++i) {
        if (!offloads[i]) continue;
        const auto id = static_cast<DeviceId>(i);
        const auto& dev = topo.device(id);
        const auto& bundle = instance.bundle_for(id);
        auto& cache = alloc_cache[i];
        auto it = cache.find(plan_signature(plans[i]));
        if (it == cache.end()) {
          AllocStats st;
          st.s_cond.resize(m, 0.0);
          for (std::size_t j = 0; j < m; ++j) {
            LinkSpec link;
            // offload_prob / upload_bytes / expected_server_time do not
            // depend on the link, so a placeholder bandwidth keeps the
            // cache valid across the per-round bandwidth renegotiation.
            link.bandwidth = 1.0;
            link.rtt = topo.path_rtt(id, static_cast<ServerId>(j));
            const PlanModel pm(bundle.graph, bundle.candidates, plans[i],
                               bundle.accuracy, dev.compute,
                               topo.server(static_cast<ServerId>(j)).compute,
                               link);
            if (j == 0) {
              st.p_off = pm.breakdown().offload_prob;
              st.up_bytes = pm.breakdown().upload_bytes;
            }
            st.s_cond[j] = pm.breakdown().offload_prob > 0.0
                               ? pm.breakdown().expected_server_time /
                                     pm.breakdown().offload_prob
                               : 0.0;
          }
          it = cache.emplace(plan_signature(plans[i]), std::move(st)).first;
        }
        p_off[i] = it->second.p_off;
        up_bytes[i] = it->second.up_bytes;
        s_cond[i] = it->second.s_cond;
        if (p_off[i] <= 0.0) {
          // The plan never uploads despite a partition; treat as local.
          plans[i].device_only = true;
          offloads[i] = false;
        }
      }

      // Bandwidth per cell: Kleinrock split over the offloaders' upload
      // streams (stability-aware); if the cell is overloaded even at full
      // capacity, fall back to the square-root rule and let the objective's
      // instability penalty push the next surgery round to cut deeper.
      for (const auto& cell : topo.cells()) {
        std::vector<DeviceId> members;
        std::vector<double> lambda_up;
        std::vector<double> bytes_up;
        std::vector<double> demand;
        for (DeviceId d : topo.devices_in_cell(cell.id)) {
          const auto i = static_cast<std::size_t>(d);
          if (!offloads[i]) continue;
          members.push_back(d);
          lambda_up.push_back(topo.device(d).arrival_rate * p_off[i]);
          bytes_up.push_back(static_cast<double>(up_bytes[i]));
          demand.push_back(topo.device(d).arrival_rate * p_off[i] *
                           static_cast<double>(up_bytes[i]));
        }
        if (members.empty()) continue;
        auto split = queueing::kleinrock(lambda_up, bytes_up, cell.bandwidth);
        if (split.empty()) {
          const bool any_positive =
              std::any_of(demand.begin(), demand.end(),
                          [](double w) { return w > 0.0; });
          split = any_positive
                      ? shares::sqrt_rule(demand, cell.bandwidth)
                      : shares::equal_split(
                            std::vector<double>(demand.size(), 1.0),
                            cell.bandwidth);
        }
        std::vector<double> granted(split.size());
        double total = 0.0;
        for (std::size_t k = 0; k < split.size(); ++k) {
          granted[k] = std::max(split[k], cell.bandwidth * 1e-6);
          total += granted[k];
        }
        // Clamping zero-demand members up may oversubscribe; renormalize.
        const double scale = total > cell.bandwidth ? cell.bandwidth / total
                                                    : 1.0;
        for (std::size_t k = 0; k < members.size(); ++k) {
          bandwidth[static_cast<std::size_t>(members[k])] = granted[k] * scale;
        }
      }

      // Server assignment: best-response over the offloaders.
      std::vector<std::size_t> off_idx;
      for (std::size_t i = 0; i < n; ++i) {
        if (offloads[i]) off_idx.push_back(i);
      }
      if (!off_idx.empty()) {
        OffloadingProblem prob;
        prob.capacity.assign(m, 1.0);
        for (std::size_t k = 0; k < off_idx.size(); ++k) {
          const std::size_t i = off_idx[k];
          const auto id = static_cast<DeviceId>(i);
          prob.rate.push_back(topo.device(id).arrival_rate * p_off[i]);
          std::vector<double> base(m, 0.0);
          std::vector<double> work(m, 0.0);
          for (std::size_t j = 0; j < m; ++j) {
            base[j] = transfer_latency(up_bytes[i], bandwidth[i],
                                       topo.path_rtt(id,
                                                     static_cast<ServerId>(j)));
            work[j] = std::max(s_cond[i][j], 1e-9);
          }
          prob.base_latency.push_back(std::move(base));
          prob.work.push_back(std::move(work));
        }
        auto solution = best_response_offloading(prob, opts_.best_response);
        if (!solution.feasible) {
          // Shed load: convert the heaviest offloaders to device-only until
          // the assignment stabilizes.
          while (!solution.feasible && off_idx.size() > 0) {
            std::size_t worst = 0;
            double worst_demand = -kInf;
            for (std::size_t k = 0; k < off_idx.size(); ++k) {
              const double d = prob.rate[k] * prob.work[k][0];
              if (d > worst_demand) {
                worst_demand = d;
                worst = k;
              }
            }
            const std::size_t dev_i = off_idx[worst];
            plans[dev_i].device_only = true;
            offloads[dev_i] = false;
            off_idx.erase(off_idx.begin() + static_cast<std::ptrdiff_t>(worst));
            prob.rate.erase(prob.rate.begin() +
                            static_cast<std::ptrdiff_t>(worst));
            prob.base_latency.erase(prob.base_latency.begin() +
                                    static_cast<std::ptrdiff_t>(worst));
            prob.work.erase(prob.work.begin() +
                            static_cast<std::ptrdiff_t>(worst));
            if (off_idx.empty()) break;
            solution = best_response_offloading(prob, opts_.best_response);
          }
        }
        if (!off_idx.empty() && solution.feasible) {
          const auto shares_out = kleinrock_shares(prob, solution.server_of);
          for (std::size_t k = 0; k < off_idx.size(); ++k) {
            server_of[off_idx[k]] = solution.server_of[k];
            share[off_idx[k]] = std::clamp(shares_out[k], 1e-9, 1.0);
          }
        }
      }
    } else {
      share = equal_shares(server_of, offloads);
    }

    // ---- Evaluate the round.
    Decision d = snapshot();
    history.push_back(d.mean_latency);
    const double d_score = round_score(instance, d, opts_.objective);
    const bool first = best.per_device.empty();
    if (first || d_score < best_obj) {
      const double improvement =
          std::isfinite(best_obj) && std::abs(best_obj) > 0.0
              ? (best_obj - d_score) / std::abs(best_obj)
              : 1.0;
      best_obj = d_score;
      best = std::move(d);
      if (!first && improvement < opts_.convergence_tol) break;
    } else if (std::isfinite(best_obj)) {
      break;  // no improvement on a finite objective: converged
    }
    // While the objective is still infinite, keep iterating — the damped
    // surgery/allocation rounds need a few passes to untangle overload.
  }

  // Portfolio guard: also solve the conservative variant (frozen
  // Neurosurgeon partitions, allocation optimized — cheap, no surgery DP)
  // and keep whichever decision is better. Under congestion the
  // alternation's negotiable-bandwidth scoring can settle in a worse
  // equilibrium than the frozen configuration; this guarantees the full
  // optimizer dominates its allocation-only ablation.
  if (opts_.enable_surgery) {
    JointOptions fallback = opts_;
    fallback.enable_surgery = false;
    Decision alt = JointOptimizer(fallback).optimize(instance);
    if (round_score(instance, alt, opts_.objective) < best_obj) {
      alt.scheme = "joint";
      best = std::move(alt);
    }
  }

  if (report) {
    report->iterations = history.size();
    report->objective_history = history;
    report->surgery_evaluations = surgery_evals;
    report->solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  SCALPEL_REQUIRE(!best.per_device.empty(),
                  "joint optimizer produced no decision");
  return best;
}

}  // namespace scalpel
