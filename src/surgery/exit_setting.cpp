#include "surgery/exit_setting.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "profile/latency_model.hpp"
#include "util/assert.hpp"

namespace scalpel {
namespace {

double coverage_of_bin(std::size_t b, std::size_t bins) {
  return static_cast<double>(b) / static_cast<double>(bins - 1);
}

std::size_t bin_of_coverage(double c, std::size_t bins) {
  // Round to nearest: unbiased over the sweep (the final selection applies
  // a one-bin feasibility margin and the result is re-verified exactly).
  const auto b = static_cast<std::size_t>(
      std::floor(c * static_cast<double>(bins - 1) + 0.5));
  return std::min(b, bins - 1);
}

ExitSettingResult make_result(const Graph& backbone,
                              const std::vector<ExitCandidate>& candidates,
                              const AccuracyModel& acc,
                              const ComputeProfile& profile,
                              const DifficultyModel& difficulty,
                              ExitPolicy policy, std::size_t evaluations) {
  ExitSettingResult r;
  r.policy = std::move(policy);
  r.stats = evaluate_policy(backbone, candidates, r.policy, acc, difficulty);
  r.expected_latency = expected_policy_latency(backbone, candidates, r.policy,
                                               r.stats, profile);
  r.feasible = true;
  r.evaluations = evaluations;
  return r;
}

}  // namespace

ExitSettingResult exhaustive_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts) {
  ExitPolicy best;
  double best_latency = std::numeric_limits<double>::infinity();
  bool found = false;
  std::size_t evaluations = 0;

  ExitPolicy current;
  // Depth-first enumeration: at each candidate, either skip it or enable it
  // with each theta in the grid.
  auto recurse = [&](auto&& self, std::size_t idx) -> void {
    ++evaluations;
    const ExitStats stats =
        evaluate_policy(backbone, candidates, current, acc, opts.difficulty);
    if (stats.expected_accuracy >= opts.min_accuracy) {
      const double latency = expected_policy_latency(backbone, candidates,
                                                     current, stats, profile);
      if (latency < best_latency) {
        best_latency = latency;
        best = current;
        found = true;
      }
    }
    if (idx >= candidates.size() || current.exits.size() >= opts.max_exits) {
      return;
    }
    for (std::size_t c = idx; c < candidates.size(); ++c) {
      for (double theta : opts.theta_grid) {
        current.exits.push_back(ExitChoice{c, theta});
        self(self, c + 1);
        current.exits.pop_back();
      }
    }
  };
  recurse(recurse, 0);

  if (!found) {
    ExitSettingResult r;
    r.evaluations = evaluations;
    return r;
  }
  auto r = make_result(backbone, candidates, acc, profile, opts.difficulty,
                       std::move(best), evaluations);
  return r;
}

ExitSettingResult greedy_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts) {
  std::size_t evaluations = 0;
  auto eval = [&](const ExitPolicy& p, double* latency) {
    ++evaluations;
    const ExitStats stats =
        evaluate_policy(backbone, candidates, p, acc, opts.difficulty);
    *latency = expected_policy_latency(backbone, candidates, p, stats,
                                       profile);
    return stats.expected_accuracy >= opts.min_accuracy;
  };

  ExitPolicy policy;  // empty = vanilla model
  double policy_latency = 0.0;
  const bool base_feasible = eval(policy, &policy_latency);
  if (!base_feasible) {
    // The vanilla model itself violates the floor (min_accuracy > a_max):
    // no exit setting can fix that.
    ExitSettingResult r;
    r.evaluations = evaluations;
    return r;
  }

  while (policy.exits.size() < opts.max_exits) {
    ExitPolicy best_next = policy;
    double best_latency = policy_latency;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const bool used =
          std::any_of(policy.exits.begin(), policy.exits.end(),
                      [c](const ExitChoice& e) { return e.candidate == c; });
      if (used) continue;
      for (double theta : opts.theta_grid) {
        ExitPolicy trial = policy;
        // Insert keeping depth order.
        auto it = std::find_if(
            trial.exits.begin(), trial.exits.end(),
            [c](const ExitChoice& e) { return e.candidate > c; });
        trial.exits.insert(it, ExitChoice{c, theta});
        double latency = 0.0;
        if (eval(trial, &latency) && latency < best_latency) {
          best_latency = latency;
          best_next = std::move(trial);
        }
      }
    }
    if (best_latency >= policy_latency) break;  // no improving addition
    policy = std::move(best_next);
    policy_latency = best_latency;
  }
  return make_result(backbone, candidates, acc, profile, opts.difficulty,
                     std::move(policy), evaluations);
}

double policy_cost(const std::vector<ExitCandidate>& candidates,
                   const ExitPolicy& policy, const ExitStats& stats,
                   const ExitCostTable& costs) {
  SCALPEL_REQUIRE(costs.segment.size() == candidates.size() &&
                      costs.head.size() == candidates.size(),
                  "cost table arity mismatch");
  // reach(candidate c) for candidates between enabled exits equals the reach
  // of the next enabled exit, so walk candidates accumulating reach.
  double cost = 0.0;
  double reach = 1.0;
  std::size_t enabled_pos = 0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    cost += reach * costs.segment[c];
    if (enabled_pos < policy.exits.size() &&
        policy.exits[enabled_pos].candidate == c) {
      cost += reach * costs.head[c];
      reach -= stats.fire_prob[enabled_pos];
      ++enabled_pos;
    }
  }
  cost += reach * costs.tail;
  return cost;
}

ExitSettingResult dp_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts) {
  const ExitLattice lattice(candidates, acc, opts);
  ExitSettingWorkspace workspace;
  return dp_exit_setting(backbone, candidates, acc, profile, opts, lattice,
                         workspace);
}

ExitSettingResult dp_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts, const ExitLattice& lattice,
    ExitSettingWorkspace& workspace) {
  ExitCostTable costs;
  const std::size_t n = candidates.size();
  costs.segment.resize(n, 0.0);
  costs.head.resize(n, 0.0);
  NodeId prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    costs.segment[i] = LatencyModel::range_latency(
        backbone, prev, candidates[i].attach, profile);
    costs.head[i] = LatencyModel::graph_latency(candidates[i].head, profile);
    prev = candidates[i].attach;
  }
  costs.tail = LatencyModel::range_latency(
      backbone, n ? candidates[n - 1].attach : 0, backbone.output(), profile);
  ExitSettingResult r = dp_exit_setting_costs(backbone, candidates, acc, costs,
                                              opts, lattice, workspace);
  if (r.feasible) {
    // Report the latency through the standard single-profile evaluator so
    // callers can compare against exhaustive/greedy results directly.
    r.expected_latency = expected_policy_latency(backbone, candidates,
                                                 r.policy, r.stats, profile);
  }
  return r;
}

ExitLattice::ExitLattice(const std::vector<ExitCandidate>& candidates,
                         const AccuracyModel& acc,
                         const ExitSettingOptions& opts)
    : stages_(candidates.size()),
      bins_(opts.coverage_bins + 1),  // bin b = coverage b / (bins - 1)
      thetas_(opts.theta_grid.size()),
      theta_grid_(opts.theta_grid),
      difficulty_a_(opts.difficulty.a()),
      difficulty_b_(opts.difficulty.b()),
      a_max_(acc.a_max) {
  SCALPEL_REQUIRE(opts.coverage_bins >= 2, "DP needs >= 2 coverage bins");
  SCALPEL_REQUIRE(bins_ <= 65536, "DP supports at most 65535 coverage bins");
  SCALPEL_REQUIRE(stages_ <= 65535 && thetas_ <= 65535,
                  "DP supports at most 65535 candidates and thetas");
  std::vector<double> bin_cdf(bins_);
  reach_.resize(bins_);
  for (std::size_t b = 0; b < bins_; ++b) {
    bin_cdf[b] = opts.difficulty.cdf(coverage_of_bin(b, bins_));
    reach_[b] = 1.0 - bin_cdf[b];
  }
  next_bin_.resize(stages_ * bins_ * thetas_);
  gain_.resize(stages_ * bins_ * thetas_);
  for (std::size_t i = 0; i < stages_; ++i) {
    const double cap = acc.capability(candidates[i].depth_fraction);
    for (std::size_t t = 0; t < thetas_; ++t) {
      const double theta = opts.theta_grid[t];
      // An exit fires on the difficulty window (covered, limit]; tasks it
      // answers score its conditional accuracy at this threshold.
      const double limit = cap * (1.0 - theta);
      const double correct =
          std::min(acc.selective_ceiling,
                   acc.conditional_accuracy(candidates[i].depth_fraction,
                                            theta) +
                       candidates[i].accuracy_bonus);
      for (std::size_t b = 0; b < bins_; ++b) {
        const double covered = std::max(coverage_of_bin(b, bins_), limit);
        const double fire =
            std::max(0.0, opts.difficulty.cdf(covered) - bin_cdf[b]);
        const std::size_t k = (i * bins_ + b) * thetas_ + t;
        gain_[k] = fire * correct;
        next_bin_[k] =
            static_cast<std::uint16_t>(bin_of_coverage(covered, bins_));
      }
    }
  }
  // Backward: the terminal scores a_max on everything still running; each
  // stage takes the better of skipping and every enable transition.
  to_go_.resize((stages_ + 1) * bins_);
  for (std::size_t b = 0; b < bins_; ++b) {
    to_go_[stages_ * bins_ + b] = reach_[b] * acc.a_max;
  }
  for (std::size_t i = stages_; i-- > 0;) {
    for (std::size_t b = 0; b < bins_; ++b) {
      double best = to_go(i + 1, b);
      const std::uint16_t* nb = next_bins(i, b);
      const double* g = gains(i, b);
      for (std::size_t t = 0; t < thetas_; ++t) {
        best = std::max(best, g[t] + to_go(i + 1, nb[t]));
      }
      to_go_[i * bins_ + b] = best;
    }
  }
}

bool ExitLattice::matches(const std::vector<ExitCandidate>& candidates,
                          const AccuracyModel& acc,
                          const ExitSettingOptions& opts) const {
  return candidates.size() == stages_ && opts.coverage_bins + 1 == bins_ &&
         opts.theta_grid == theta_grid_ &&
         opts.difficulty.a() == difficulty_a_ &&
         opts.difficulty.b() == difficulty_b_ && acc.a_max == a_max_;
}

const ExitLattice& ExitLatticeSet::get(
    const std::vector<ExitCandidate>& candidates, const AccuracyModel& acc,
    const ExitSettingOptions& opts) {
  for (const Entry& e : entries_) {
    if (e.candidates == &candidates &&
        e.lattice->matches(candidates, acc, opts)) {
      return *e.lattice;
    }
  }
  entries_.push_back(
      Entry{&candidates, std::make_unique<ExitLattice>(candidates, acc, opts)});
  return *entries_.back().lattice;
}

bool insert_pareto(std::vector<ExitSettingWorkspace::Label>& set,
                   const ExitSettingWorkspace::Label& label) {
  using Label = ExitSettingWorkspace::Label;
  // Latency rises strictly with accuracy along the set, so the labels at
  // least as accurate as `label` (a suffix) are cheapest at its front ...
  const double acc_lo = label.accuracy - 1e-12;
  const auto at_least = std::partition_point(
      set.begin(), set.end(),
      [&](const Label& l) { return !(l.accuracy >= acc_lo); });
  if (at_least != set.end() && at_least->latency <= label.latency + 1e-12) {
    return false;  // dominated
  }
  // ... and the labels it dominates (no more accurate, no faster) form one
  // contiguous range ending where accuracy exceeds it; `label` takes their
  // place in the order. The range covers every label within 1e-12 of its
  // accuracy, so it starts at or before `at_least` and ends at or after it.
  const auto last = std::partition_point(
      at_least, set.end(),
      [&](const Label& l) { return label.accuracy >= l.accuracy - 1e-12; });
  const auto first = std::partition_point(
      set.begin(), at_least,
      [&](const Label& l) { return !(label.latency <= l.latency + 1e-12); });
  if (first == last) {
    set.insert(first, label);
  } else {
    *first = label;
    set.erase(first + 1, last);
  }
  return true;
}

ExitSettingResult dp_exit_setting_costs(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ExitCostTable& costs,
    const ExitSettingOptions& opts) {
  const ExitLattice lattice(candidates, acc, opts);
  ExitSettingWorkspace workspace;
  return dp_exit_setting_costs(backbone, candidates, acc, costs, opts, lattice,
                               workspace);
}

ExitSettingResult dp_exit_setting_costs(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ExitCostTable& costs,
    const ExitSettingOptions& opts, const ExitLattice& lattice,
    ExitSettingWorkspace& workspace) {
  using Label = ExitSettingWorkspace::Label;
  using Step = ExitSettingWorkspace::Step;
  SCALPEL_REQUIRE(costs.segment.size() == candidates.size() &&
                      costs.head.size() == candidates.size(),
                  "cost table arity mismatch");
  SCALPEL_REQUIRE(lattice.matches(candidates, acc, opts),
                  "exit lattice built for other options");
  const std::size_t bins = lattice.bins();
  const std::size_t thetas = lattice.thetas();
  const std::size_t n = candidates.size();
  // A label whose accuracy plus the most it can still collect misses the
  // floor by more than 1e-9 can never be selected, nor can any label it
  // would have dominated (see DESIGN.md §5.1).
  const double reachable_floor = opts.min_accuracy - 1e-9;

  auto& frontier = workspace.frontier;
  auto& next = workspace.next;
  auto& steps = workspace.steps;
  frontier.resize(bins);
  next.resize(bins);
  for (auto& set : frontier) set.clear();
  steps.clear();
  frontier[0].push_back(Label{0.0, 0.0, -1, 0});
  std::size_t evaluations = 0;

  for (std::size_t i = 0; i < n; ++i) {
    for (auto& set : next) set.clear();
    for (std::size_t b = 0; b < bins; ++b) {
      if (frontier[b].empty()) continue;
      // Everyone still running pays the backbone segment to candidate i,
      // and the head too if the exit is enabled.
      const double reach = lattice.reach(b);
      const double segment_cost = reach * costs.segment[i];
      const double head_cost = reach * costs.head[i];
      const double skip_to_go = lattice.to_go(i + 1, b);
      const std::uint16_t* next_bin = lattice.next_bins(i, b);
      const double* gain = lattice.gains(i, b);
      for (const Label& label : frontier[b]) {
        const double base_latency = label.latency + segment_cost;
        // Option 1: skip candidate i.
        if (label.accuracy + skip_to_go >= reachable_floor) {
          insert_pareto(next[b], Label{label.accuracy, base_latency,
                                       label.step, label.exits});
          ++evaluations;
        }
        // Option 2: enable with each theta.
        if (label.exits >= opts.max_exits) continue;
        const double enabled_latency = base_latency + head_cost;
        for (std::size_t t = 0; t < thetas; ++t) {
          const double accuracy = label.accuracy + gain[t];
          const std::size_t nb = next_bin[t];
          if (accuracy + lattice.to_go(i + 1, nb) < reachable_floor) continue;
          ++evaluations;
          const Label en{accuracy, enabled_latency,
                         static_cast<std::int32_t>(steps.size()),
                         label.exits + 1};
          if (insert_pareto(next[nb], en)) {
            steps.push_back(Step{label.step, static_cast<std::uint16_t>(i),
                                 static_cast<std::uint16_t>(t)});
          }
        }
      }
    }
    frontier.swap(next);
  }

  // Terminal: tasks still running pay the tail segment and score a_max.
  // Coverage discretization can overstate a label's accuracy by up to one
  // bin's worth of mass; select with that margin, then verify exactly. The
  // margin may exclude everything; then select without it (the repair below
  // restores exact feasibility).
  const Label* best = nullptr;
  auto select = [&](double need) {
    double best_latency = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < bins; ++b) {
      const double reach = lattice.reach(b);
      for (const Label& label : frontier[b]) {
        const double latency = label.latency + reach * costs.tail;
        if (label.accuracy + reach * acc.a_max >= need &&
            latency < best_latency) {
          best_latency = latency;
          best = &label;
        }
      }
    }
  };
  select(opts.min_accuracy + 1.0 / static_cast<double>(bins - 1));
  if (best == nullptr) select(opts.min_accuracy);
  if (best == nullptr) {
    ExitSettingResult r;
    r.evaluations = evaluations;
    return r;
  }
  ExitSettingResult r;
  // Materialize the winning label's decision chain from the arena. Steps were
  // appended in increasing candidate order, so reversing the parent walk
  // reproduces the depth-ordered trace the old per-label vectors carried.
  for (std::int32_t id = best->step; id >= 0;
       id = steps[static_cast<std::size_t>(id)].parent) {
    const Step& step = steps[static_cast<std::size_t>(id)];
    r.policy.exits.push_back(
        ExitChoice{step.candidate, opts.theta_grid[step.theta]});
  }
  std::reverse(r.policy.exits.begin(), r.policy.exits.end());
  r.stats = evaluate_policy(backbone, candidates, r.policy, acc,
                            opts.difficulty);
  // Repair: if exact accuracy still misses the floor, drop the shallowest
  // (least accurate) exits until it holds.
  while (r.stats.expected_accuracy < opts.min_accuracy - 1e-12 &&
         !r.policy.exits.empty()) {
    r.policy.exits.erase(r.policy.exits.begin());
    r.stats = evaluate_policy(backbone, candidates, r.policy, acc,
                              opts.difficulty);
  }
  if (r.stats.expected_accuracy < opts.min_accuracy - 1e-12) {
    r.evaluations = evaluations;
    return r;  // even the vanilla model misses the floor
  }
  r.expected_latency = policy_cost(candidates, r.policy, r.stats, costs);

  // Local polish with exact evaluation: the coverage discretization biases
  // the DP toward conservative thetas; re-tuning each enabled exit's theta
  // (and trying removal) against the exact objective recovers most of the
  // residual gap at negligible cost.
  bool improved = true;
  for (int round = 0; round < 3 && improved; ++round) {
    improved = false;
    // Insertion moves: try enabling each unused candidate.
    if (r.policy.exits.size() < opts.max_exits) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const bool used = std::any_of(
            r.policy.exits.begin(), r.policy.exits.end(),
            [c](const ExitChoice& e) { return e.candidate == c; });
        if (used) continue;
        bool inserted = false;
        for (double theta : opts.theta_grid) {
          ExitPolicy trial = r.policy;
          auto it = std::find_if(
              trial.exits.begin(), trial.exits.end(),
              [c](const ExitChoice& e) { return e.candidate > c; });
          trial.exits.insert(it, ExitChoice{c, theta});
          const auto stats = evaluate_policy(backbone, candidates, trial, acc,
                                             opts.difficulty);
          ++evaluations;
          if (stats.expected_accuracy < opts.min_accuracy - 1e-12) continue;
          const double cost = policy_cost(candidates, trial, stats, costs);
          if (cost < r.expected_latency - 1e-15) {
            r.policy = std::move(trial);
            r.stats = stats;
            r.expected_latency = cost;
            improved = true;
            inserted = true;
            break;  // candidate c is now enabled; theta tuning follows later
          }
        }
        if (inserted && r.policy.exits.size() >= opts.max_exits) break;
      }
    }
    for (std::size_t e = 0; e < r.policy.exits.size(); ++e) {
      // Theta re-tuning.
      for (double theta : opts.theta_grid) {
        if (theta == r.policy.exits[e].theta) continue;
        ExitPolicy trial = r.policy;
        trial.exits[e].theta = theta;
        const auto stats = evaluate_policy(backbone, candidates, trial, acc,
                                           opts.difficulty);
        ++evaluations;
        if (stats.expected_accuracy < opts.min_accuracy - 1e-12) continue;
        const double cost = policy_cost(candidates, trial, stats, costs);
        if (cost < r.expected_latency - 1e-15) {
          r.policy = std::move(trial);
          r.stats = stats;
          r.expected_latency = cost;
          improved = true;
        }
      }
      // Removal.
      {
        ExitPolicy trial = r.policy;
        trial.exits.erase(trial.exits.begin() +
                          static_cast<std::ptrdiff_t>(e));
        const auto stats = evaluate_policy(backbone, candidates, trial, acc,
                                           opts.difficulty);
        ++evaluations;
        if (stats.expected_accuracy >= opts.min_accuracy - 1e-12) {
          const double cost = policy_cost(candidates, trial, stats, costs);
          if (cost < r.expected_latency - 1e-15) {
            r.policy = std::move(trial);
            r.stats = stats;
            r.expected_latency = cost;
            improved = true;
            if (r.policy.exits.empty()) break;
          }
        }
      }
    }
  }

  r.feasible = true;
  r.evaluations = evaluations;
  return r;
}

}  // namespace scalpel
