#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>
#include <utility>

#include "baselines/baselines.hpp"
#include "core/joint.hpp"
#include "core/online.hpp"
#include "core/validate.hpp"
#include "ctrl/plane.hpp"
#include "edge/builders.hpp"
#include "edge/dynamics.hpp"
#include "obs/trace.hpp"
#include "perf/alloc_hook.hpp"
#include "sim/shard.hpp"
#include "surgery/exit_setting.hpp"
#include "util/rng.hpp"

namespace scenariobench {

using namespace scalpel;

namespace {

// Generator seeds 1-7 move the 48/6 cold solve between 0.56 s and 0.98 s and
// its rounds between 3 and 4, so the topology is pinned; the run's --seed
// only drives arrivals, episode and crash times, and fabric draws.
constexpr std::uint64_t kTopologySeed = 7;
// The sharded engine's worker count is part of the workload, not a flag.
constexpr std::size_t kShardThreads = 1;
constexpr std::size_t kShards = 4;

/// The reproduction benches' solver budget (4 rounds, 60 coverage bins).
JointOptions bench_joint() {
  JointOptions o;
  o.max_iterations = 4;
  o.dp_coverage_bins = 60;
  return o;
}

/// F19's light budget for controller re-solves (about 15-50 ms each).
JointOptions light_joint() {
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

ClusterTopology campus(std::size_t devices, std::size_t servers,
                       double rate) {
  clusters::CampusOptions c;
  c.num_devices = devices;
  c.num_servers = servers;
  c.mean_arrival_rate = rate;
  c.seed = kTopologySeed;
  return clusters::campus(c);
}

/// Fixed-count episodes spread over [t0, t1): one per equal slot, in the
/// given order, each lasting `len` of its slot. Only the start inside the
/// slot comes from the seed; counts, lengths, targets and magnitudes are
/// fixed, so the amount of work does not depend on the seed.
struct Episode {
  int kind = 0;
  double start = 0.0;
  double end = 0.0;
};

std::vector<Episode> spread_episodes(const std::vector<int>& kinds,
                                     double t0, double t1, double len,
                                     Rng& rng) {
  const double slot = (t1 - t0) / static_cast<double>(kinds.size());
  std::vector<Episode> out;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    Episode e;
    e.kind = kinds[k];
    e.start = t0 + (static_cast<double>(k) + rng.uniform(0.05, 0.95 - len)) *
                       slot;
    e.end = e.start + len * slot;
    out.push_back(e);
  }
  return out;
}

/// F19's fault policy: tasks on a crashed server back off and re-dispatch
/// through the controller's current plan.
FaultOptions retry_offload(const FaultSchedule& schedule) {
  FaultOptions f;
  f.policy = FaultPolicy::RetryOffload;
  f.max_retries = 20;
  f.retry_backoff = 0.25;
  f.retry_timeout = 15.0;
  f.schedule = schedule;
  return f;
}

void add_failure(RepResult& r, std::string what) {
  r.failures.push_back(std::move(what));
}

/// Checks every DES run must pass: conservation and the backlog guard.
void check_des(const SimMetrics& m, double warmup, RepResult& r) {
  if (m.arrived !=
      m.completed_all + m.failed_all + m.shed_all + m.in_flight_end) {
    add_failure(r, "conservation: arrived != completed + failed + shed + "
                   "in flight");
  }
  if (m.events_processed == 0 || m.completed == 0) {
    add_failure(r, "DES run completed no tasks");
  }
  const auto skip = static_cast<std::size_t>(
      std::ceil(warmup / m.series.window));
  const BacklogVerdict v = backlog_guard(m.series.tasks_in_flight, skip);
  if (!v.ok) {
    add_failure(r, "backlog guard: in flight grew from " +
                       std::to_string(v.first_half) + " to " +
                       std::to_string(v.second_half));
  }
}

/// validate_plan() plus, where the plan is meant to keep them, the devices'
/// exact accuracy floors.
void check_plan(const ProblemInstance& instance, const Decision& d,
                const std::vector<bool>& alive, bool accuracy_floor,
                const char* what, RepResult& r) {
  PlanValidationOptions vo;
  vo.check_accuracy = accuracy_floor;
  const PlanValidation v = validate_plan(instance, d, alive, vo);
  if (!v.ok) add_failure(r, std::string(what) + ": " + v.reason);
}

/// The solver seam: installed as OnlineController::Options::solver and
/// CellControllerOptions::solver, and called directly for cold solves. It
/// runs the plain JointOptimizer, so the default path is what is timed,
/// and records the span, the pooled re-solve time and the report counts.
class Seam {
 public:
  Seam(SpanRecorder& rec, ResolvePool& pool, SolveTally& tally)
      : rec_(rec), pool_(pool), tally_(tally) {}

  Decision solve(const ProblemInstance& inst, const JointOptions& j) {
    ++tally_.calls;
    // The owner of a call is identified by its first device: the online
    // controller always solves over all devices (dead servers drop out,
    // devices never do), and each cell over its own members.
    const auto& devs = inst.topology().devices();
    const std::string owner = devs.empty() ? std::string() : devs.front().name;
    JointReport report;
    Decision d;
    rec_.open("core.joint");
    try {
      d = JointOptimizer(j).optimize(inst, &report);
    } catch (...) {
      rec_.close();
      ++tally_.threw;
      throw;
    }
    const double seconds = rec_.close();
    pool_.add(owner, seconds * 1e3);
    iterations += report.iterations;
    evaluations += report.surgery_evaluations;
    {
      Scope v(rec_, "core.validate");
      PlanValidationOptions vo;
      vo.check_accuracy = true;
      const PlanValidation verdict = validate_plan(inst, d, {}, vo);
      if (!verdict.ok) {
        ++tally_.refused;
        last_refusal = verdict.reason;
      }
    }
    return d;
  }

  std::function<Decision(const ProblemInstance&, const JointOptions&)> fn() {
    return [this](const ProblemInstance& inst, const JointOptions& j) {
      return solve(inst, j);
    };
  }

  std::uint64_t iterations = 0;
  std::uint64_t evaluations = 0;
  std::string last_refusal;  // reason of the last refused output

 private:
  SpanRecorder& rec_;
  ResolvePool& pool_;
  SolveTally& tally_;
};

/// Runs sim.init / sim.run under spans and collects what the traced run
/// reads (task-trace counts, allocations inside the run).
template <class Engine>
SimMetrics run_engine(SpanRecorder& rec, Engine& sim, RepResult& r) {
  const std::uint64_t allocs_before = perf::alloc_count();
  SimMetrics m;
  {
    Scope s(rec, "sim.run");
    m = sim.run();
  }
  r.allocs = perf::alloc_count() - allocs_before;
  return m;
}

void collect_trace(const std::vector<TraceEvent>& events,
                   std::uint64_t dropped, RepResult& r) {
  r.trace_counts = trace_event_counts(events);
  r.trace_dropped = dropped;
  if (dropped != 0) {
    add_failure(r, "task trace ring overflowed; sim.trace counts inexact");
  }
}

/// Ring capacity per tracer: expected tasks times `per_task` events,
/// split over `rings` with 1.5x headroom when the sharded engine splits the
/// trace. The ring must hold the whole run for the trace counts to be
/// exact; an overflow fails the run.
std::size_t trace_capacity(const ClusterTopology& topo, double horizon,
                           double per_task, std::size_t rings = 1) {
  double rate = 0.0;
  for (const auto& d : topo.devices()) rate += d.arrival_rate;
  const double per_ring = rate * horizon * per_task /
                          static_cast<double>(rings) *
                          (rings > 1 ? 1.5 : 1.0);
  return static_cast<std::size_t>(per_ring) + 4096;
}

DpProbe probe_dp(const ProblemInstance& instance, const JointOptions& j) {
  // One device per distinct model, in device order.
  std::vector<const Device*> reps;
  std::set<std::string> seen;
  for (const auto& d : instance.topology().devices()) {
    if (seen.insert(d.model).second) reps.push_back(&d);
  }
  constexpr int kRounds = 9;
  std::vector<double> per_call_us;
  double evaluations = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    double evals = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const Device* d : reps) {
      const ModelBundle& b = instance.bundle_for(d->id);
      ExitSettingOptions o;
      o.min_accuracy = d->min_accuracy;
      o.theta_grid = j.theta_grid;
      o.max_exits = j.max_exits;
      o.coverage_bins = j.dp_coverage_bins;
      o.difficulty = d->difficulty;
      const ExitSettingResult res =
          dp_exit_setting(b.graph, b.candidates, b.accuracy, d->compute, o);
      evals += static_cast<double>(res.evaluations);
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    per_call_us.push_back(us / static_cast<double>(reps.size()));
    evaluations = evals;
  }
  return DpProbe{median(per_call_us), evaluations};
}

// ---------------------------------------------------------------------------
// plan-cold: a new deployment. Cold instance + joint solve + validation,
// then a short single-loop DES of the adopted plan.

class PlanCold final : public Scenario {
 public:
  explicit PlanCold(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder& rec) override {
    {
      Scope s(rec, "edge.topology");
      topo_ = campus(48, 6, 2.0);
    }
    Scope s(rec, "core.instance");
    instance_ = std::make_unique<ProblemInstance>(topo_);
  }

  RepResult run_rep(SpanRecorder& rec, ResolvePool& pool,
                    bool trace_tasks) override {
    RepResult r;
    Seam seam(rec, pool, r.solves);
    std::unique_ptr<ProblemInstance> cold;
    {
      Scope s(rec, "core.instance");
      cold = std::make_unique<ProblemInstance>(topo_);
    }
    // The seam's own validation (with the accuracy floor) is the check on
    // the adopted cold plan.
    const Decision d = seam.solve(*cold, bench_joint());
    if (r.solves.refused != 0) {
      add_failure(r, "cold plan: " + seam.last_refusal);
    }
    Simulator::Options o;
    o.horizon = kHorizon;
    o.warmup = kWarmup;
    o.seed = seed_;
    o.series_window = 30.0;
    // Recorded: about 8.3 trace events per task.
    if (trace_tasks) o.trace_capacity = trace_capacity(topo_, kHorizon, 12.0);
    std::unique_ptr<Simulator> sim;
    {
      Scope s(rec, "sim.init");
      sim = std::make_unique<Simulator>(*cold, d, o);
    }
    r.sim = run_engine(rec, *sim, r);
    check_des(r.sim, kWarmup, r);
    if (trace_tasks) {
      collect_trace(sim->trace().snapshot(), sim->trace().dropped(), r);
    }
    r.layer["core.joint.iterations"] = static_cast<double>(seam.iterations);
    r.layer["core.joint.surgery_evals"] =
        static_cast<double>(seam.evaluations);
    return r;
  }

  const char* plan_span() const override { return "core.joint"; }
  DpProbe dp_probe() const override {
    return probe_dp(*instance_, bench_joint());
  }

 private:
  static constexpr double kHorizon = 600.0;
  static constexpr double kWarmup = 30.0;
  std::uint64_t seed_;
  ClusterTopology topo_;
  std::unique_ptr<ProblemInstance> instance_;
};

// ---------------------------------------------------------------------------
// online-churn: OnlineController over a few simulated hours of bandwidth
// episodes, server crashes and offered-load bursts.

class OnlineChurn final : public Scenario {
 public:
  explicit OnlineChurn(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder& rec) override {
    {
      Scope s(rec, "edge.topology");
      topo_ = campus(24, 4, 2.0);
    }
    {
      Scope s(rec, "core.instance");
      instance_ = std::make_unique<ProblemInstance>(topo_);
    }
    // Scripts, interleaved over the horizon: bandwidth episodes (kind 0,
    // cell k mod cells at kBandwidthDrop of nominal), server crashes (kind
    // 1, server k mod servers) and offered-load bursts (kind 2, kBurst x).
    Rng rng(seed_);
    std::vector<int> kinds;
    for (int i = 0; i < kEpisodesPerKind; ++i) {
      for (int kind = 0; kind < 3; ++kind) kinds.push_back(kind);
    }
    const auto episodes = spread_episodes(kinds, kWarmup, kHorizon, 0.3, rng);
    const std::size_t cells = topo_.cells().size();
    const std::size_t servers = topo_.servers().size();
    std::vector<std::vector<BandwidthTrace::Segment>> segs(cells);
    for (std::size_t c = 0; c < cells; ++c) {
      segs[c].push_back({0.0, topo_.cells()[c].bandwidth});
    }
    std::vector<FaultEvent> faults;
    bursts_.clear();
    std::size_t count[3] = {0, 0, 0};
    for (const Episode& e : episodes) {
      const std::size_t k = count[e.kind]++;
      if (e.kind == 0) {
        const std::size_t c = k % cells;
        const double bw = topo_.cells()[c].bandwidth;
        segs[c].push_back({e.start, bw * kBandwidthDrop});
        segs[c].push_back({e.end, bw});
      } else if (e.kind == 1) {
        const auto srv = static_cast<std::int32_t>(k % servers);
        faults.push_back({e.start, FaultTarget::Server, srv, false});
        faults.push_back({e.end, FaultTarget::Server, srv, true});
      } else {
        bursts_.push_back(RateBurst{e.start, e.end, kBurst});
      }
    }
    traces_.clear();
    for (auto& s : segs) {
      std::sort(s.begin(), s.end(),
                [](const auto& a, const auto& b) { return a.start < b.start; });
      traces_.emplace_back(s);
    }
    faults_ = FaultSchedule(std::move(faults));
  }

  RepResult run_rep(SpanRecorder& rec, ResolvePool& pool,
                    bool trace_tasks) override {
    RepResult r;
    Seam seam(rec, pool, r.solves);
    OnlineController::Options co;
    co.joint = light_joint();
    co.overload.ladder.rungs = 4;
    co.overload.ladder.accuracy_step = 0.05;
    co.overload.recover_margin = 0.8;
    co.solver = seam.fn();
    std::unique_ptr<OnlineController> ctl;
    {
      Scope s(rec, "core.online.init");
      ctl = std::make_unique<OnlineController>(topo_, co);
    }
    Decision initial;
    {
      Scope s(rec, "core.online.decision");
      initial = ctl->decision();
    }
    {
      Scope s(rec, "core.validate");
      check_plan(ctl->instance(), initial, {}, true, "initial plan", r);
    }

    Simulator::Options o;
    o.horizon = kHorizon;
    o.warmup = kWarmup;
    o.seed = seed_;
    o.control_interval = 1.0;
    o.series_window = 60.0;
    o.overload.policy = OverloadPolicy::ShedExpired;
    o.overload.device_queue_limit = 32;
    o.overload.upload_queue_limit = 8;
    o.overload.server_queue_limit = 8;
    o.faults = retry_offload(faults_);
    o.rate_bursts = bursts_;
    // Recorded: about 9 trace events per nominal task, bursts included.
    if (trace_tasks) o.trace_capacity = trace_capacity(topo_, kHorizon, 12.0);

    std::unique_ptr<Simulator> sim;
    {
      Scope s(rec, "sim.init");
      sim = std::make_unique<Simulator>(*instance_, initial, o);
      for (std::size_t c = 0; c < traces_.size(); ++c) {
        sim->set_cell_trace(static_cast<CellId>(c), traces_[c]);
      }
      sim->set_controller([&](const Observation& obs) {
        Scope cb(rec, "sim.controller");
        ControlAction a;
        bool changed = false;
        {
          Scope span(rec, "core.online.observe");
          changed = ctl->observe(obs);
        }
        if (changed) {
          Scope span(rec, "core.validate");
          a.decision = ctl->decision();
          a.admit_fraction = ctl->admit_fraction();
          // Degraded rungs lower the accuracy floors on purpose; the
          // undegraded plan must keep them exactly.
          check_plan(ctl->instance(), *a.decision, obs.server_alive,
                     ctl->current_rung() == 0, "adopted plan", r);
        }
        return a;
      });
    }
    r.sim = run_engine(rec, *sim, r);
    check_des(r.sim, kWarmup, r);
    if (trace_tasks) {
      collect_trace(sim->trace().snapshot(), sim->trace().dropped(), r);
    }
    r.solves.fallbacks = ctl->fallbacks();
    r.layer["core.joint.iterations"] = static_cast<double>(seam.iterations);
    r.layer["core.joint.surgery_evals"] =
        static_cast<double>(seam.evaluations);
    r.layer["core.online.reoptimizations"] =
        static_cast<double>(ctl->reoptimizations());
    r.layer["core.online.failovers"] = static_cast<double>(ctl->failovers());
    r.layer["core.online.degradations"] =
        static_cast<double>(ctl->degradations());
    r.layer["core.online.fallbacks"] = static_cast<double>(ctl->fallbacks());
    r.layer["core.online.plans_rejected"] =
        static_cast<double>(ctl->plans_rejected());
    return r;
  }

  const char* plan_span() const override { return "core.online.decision"; }
  DpProbe dp_probe() const override {
    return probe_dp(*instance_, light_joint());
  }

 private:
  static constexpr double kHorizon = 2400.0;
  static constexpr double kWarmup = 60.0;
  static constexpr int kEpisodesPerKind = 2;
  static constexpr double kBandwidthDrop = 0.45;
  static constexpr double kBurst = 3.0;
  std::uint64_t seed_;
  ClusterTopology topo_;
  std::unique_ptr<ProblemInstance> instance_;
  std::vector<BandwidthTrace> traces_;
  FaultSchedule faults_;
  std::vector<RateBurst> bursts_;
};

// ---------------------------------------------------------------------------
// metro-sharded: a city-scale what-if run. Neurosurgeon plan, sharded DES.

class MetroSharded final : public Scenario {
 public:
  explicit MetroSharded(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder& rec) override {
    {
      Scope s(rec, "edge.topology");
      clusters::CampusOptions c;
      c.num_devices = 10000;
      c.num_servers = 32;
      c.devices_per_cell = 100;
      c.cell_rtt = 10e-3;
      c.mean_arrival_rate = 0.05;
      c.deadline = 0.0;  // best effort
      c.seed = kTopologySeed;
      topo_ = clusters::campus(c);
    }
    Scope s(rec, "core.instance");
    instance_ = std::make_unique<ProblemInstance>(topo_);
  }

  RepResult run_rep(SpanRecorder& rec, ResolvePool&,
                    bool trace_tasks) override {
    RepResult r;
    Decision d;
    {
      Scope s(rec, "baselines.decision");
      d = baselines::neurosurgeon(*instance_);
    }
    {
      Scope s(rec, "core.validate");
      check_plan(*instance_, d, {}, true, "neurosurgeon plan", r);
    }
    const Simulator::Options o = sim_options(trace_tasks);
    ShardOptions so;
    so.shards = kShards;
    so.threads = kShardThreads;
    std::unique_ptr<ShardedSimulator> sim;
    {
      Scope s(rec, "sim.init");
      sim = std::make_unique<ShardedSimulator>(*instance_, d, o, so);
    }
    r.sim = run_engine(rec, *sim, r);
    check_des(r.sim, kWarmup, r);
    if (trace_tasks) collect_trace(sim->trace_events(), 0, r);
    r.layer["sim.shard.count"] = static_cast<double>(sim->plan().num_shards);
    r.layer["sim.shard.lookahead_ms"] = sim->plan().lookahead * 1e3;
    r.layer["sim.shard.barriers"] = static_cast<double>(sim->barriers_run());
    decision_ = std::move(d);
    return r;
  }

  /// The sharded result must equal an untimed single-loop run of the seed.
  std::vector<std::string> once_per_run_checks(
      const RepResult& first) override {
    Simulator single(*instance_, decision_, sim_options(false));
    const SimMetrics m = single.run();
    if (sim_fingerprint(m) != sim_fingerprint(first.sim)) {
      return {"sharded run differs from the single-loop run"};
    }
    return {};
  }

  const char* plan_span() const override { return "baselines.decision"; }
  DpProbe dp_probe() const override {
    return probe_dp(*instance_, bench_joint());
  }

 private:
  Simulator::Options sim_options(bool trace_tasks) const {
    Simulator::Options o;
    o.horizon = kHorizon;
    o.warmup = kWarmup;
    o.seed = seed_;
    o.series_window = 20.0;
    if (trace_tasks) {
      // Recorded: about 5.6 trace events per task.
      o.trace_capacity = trace_capacity(topo_, kHorizon, 8.0, kShards);
    }
    return o;
  }

  static constexpr double kHorizon = 600.0;
  static constexpr double kWarmup = 20.0;
  std::uint64_t seed_;
  ClusterTopology topo_;
  std::unique_ptr<ProblemInstance> instance_;
  Decision decision_;
};

// ---------------------------------------------------------------------------
// distributed-ctrl: the distributed control plane on the P1 cluster over a
// lossy fabric, with coordinator and server crashes.

class DistributedCtrl final : public Scenario {
 public:
  explicit DistributedCtrl(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder& rec) override {
    {
      Scope s(rec, "edge.topology");
      topo_ = campus(48, 6, 2.0);
    }
    {
      Scope s(rec, "core.instance");
      instance_ = std::make_unique<ProblemInstance>(topo_);
    }
    // Until the plane's first tick every device runs locally.
    initial_ = baselines::device_only(*instance_);
    // Coordinator crashes (kind 0) alternating with data-plane server
    // crashes (kind 1, server k mod servers).
    Rng rng(seed_);
    std::vector<int> kinds;
    for (int i = 0; i < kCrashesPerKind; ++i) {
      kinds.push_back(0);
      kinds.push_back(1);
    }
    const auto episodes = spread_episodes(kinds, kWarmup, kHorizon, 0.2, rng);
    std::vector<FaultEvent> coord;
    std::vector<FaultEvent> data;
    std::size_t server_crashes = 0;
    for (const Episode& e : episodes) {
      if (e.kind == 0) {
        coord.push_back({e.start, FaultTarget::Server, 0, false});
        coord.push_back({e.end, FaultTarget::Server, 0, true});
      } else {
        const auto srv = static_cast<std::int32_t>(server_crashes++ %
                                                   topo_.servers().size());
        data.push_back({e.start, FaultTarget::Server, srv, false});
        data.push_back({e.end, FaultTarget::Server, srv, true});
      }
    }
    coordinator_faults_ = FaultSchedule(std::move(coord));
    server_faults_ = FaultSchedule(std::move(data));
  }

  RepResult run_rep(SpanRecorder& rec, ResolvePool& pool,
                    bool trace_tasks) override {
    RepResult r;
    Seam seam(rec, pool, r.solves);
    DistributedPlaneOptions po;
    po.fabric = ControlFabricOptions{0.2, 0.5, 0.05};
    po.cell.joint = light_joint();
    po.cell.solver = seam.fn();
    po.controller_faults = coordinator_faults_;
    po.seed = seed_;
    std::unique_ptr<DistributedControlPlane> plane;
    {
      Scope s(rec, "ctrl.init");
      plane = std::make_unique<DistributedControlPlane>(topo_, po);
    }

    Simulator::Options o;
    o.horizon = kHorizon;
    o.warmup = kWarmup;
    o.seed = seed_;
    o.control_interval = 1.0;
    o.series_window = 60.0;
    o.faults = retry_offload(server_faults_);
    // Recorded: about 7.9 trace events per task.
    if (trace_tasks) o.trace_capacity = trace_capacity(topo_, kHorizon, 12.0);

    std::unique_ptr<Simulator> sim;
    {
      Scope s(rec, "sim.init");
      sim = std::make_unique<Simulator>(*instance_, initial_, o);
      sim->set_controller([&](const Observation& obs) {
        Scope cb(rec, "sim.controller");
        ControlAction a;
        {
          Scope span(rec, "ctrl.tick");
          a = plane->tick(obs);
        }
        if (a.decision) {
          Scope span(rec, "core.validate");
          check_plan(*instance_, *a.decision, obs.server_alive, true,
                     "merged plan", r);
        }
        return a;
      });
    }
    r.sim = run_engine(rec, *sim, r);
    check_des(r.sim, kWarmup, r);
    if (trace_tasks) {
      collect_trace(sim->trace().snapshot(), sim->trace().dropped(), r);
    }
    r.solves.fallbacks = plane->cell_fallbacks();
    r.layer["core.joint.iterations"] = static_cast<double>(seam.iterations);
    r.layer["core.joint.surgery_evals"] =
        static_cast<double>(seam.evaluations);
    r.layer["ctrl.local_solves"] = static_cast<double>(plane->local_solves());
    r.layer["ctrl.plan_changes"] = static_cast<double>(plane->plan_changes());
    r.layer["ctrl.dead_letters"] = static_cast<double>(plane->dead_letters());
    r.layer["ctrl.cell_fallbacks"] =
        static_cast<double>(plane->cell_fallbacks());
    r.layer["ctrl.coordinator_losses"] =
        static_cast<double>(plane->coordinator_losses());
    return r;
  }

  const char* plan_span() const override { return "ctrl.tick"; }
  DpProbe dp_probe() const override {
    return probe_dp(*instance_, light_joint());
  }

 private:
  static constexpr double kHorizon = 2400.0;
  static constexpr double kWarmup = 60.0;
  static constexpr int kCrashesPerKind = 1;
  std::uint64_t seed_;
  ClusterTopology topo_;
  std::unique_ptr<ProblemInstance> instance_;
  Decision initial_;
  FaultSchedule coordinator_faults_;
  FaultSchedule server_faults_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "plan-cold", "online-churn", "metro-sharded", "distributed-ctrl"};
  return names;
}

std::unique_ptr<Scenario> make_scenario(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "plan-cold") return std::make_unique<PlanCold>(seed);
  if (name == "online-churn") return std::make_unique<OnlineChurn>(seed);
  if (name == "metro-sharded") return std::make_unique<MetroSharded>(seed);
  if (name == "distributed-ctrl") {
    return std::make_unique<DistributedCtrl>(seed);
  }
  return nullptr;
}

std::uint64_t sim_fingerprint(const SimMetrics& m) {
  Fingerprint f;
  for (const std::size_t v :
       {m.events_processed, m.arrived, m.completed, m.completed_all,
        m.failed_all, m.shed_all, m.in_flight_end, m.failed, m.retried,
        m.resteered, m.shed, m.expired}) {
    f.add(static_cast<std::uint64_t>(v));
  }
  for (const double v :
       {m.latency.mean(), m.deadline_satisfaction, m.measured_accuracy,
        m.mean_task_energy, m.offload_fraction, m.availability}) {
    f.add(v);
  }
  for (const double v : m.series.tasks_in_flight) f.add(v);
  for (const auto& d : m.per_device) {
    f.add(static_cast<std::uint64_t>(d.completed));
    f.add(d.accuracy_sum);
  }
  return f.value();
}

}  // namespace scenariobench
