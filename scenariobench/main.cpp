// Scenario benchmark: drives topology -> plan -> controller ticks -> DES
// through the scalpel libraries' public APIs and prints one JSON result
// line. See README.md for the workloads, metrics and the steadiness rules.
//
//   scenario_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 (the
// scenario_bench_traced binary) reports the per-layer metrics and writes the
// spans as Chrome trace JSON to --trace-out.

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "canary.hpp"
#include "obs/trace.hpp"
#include "perf/alloc_hook.hpp"
#include "workloads.hpp"

using namespace scenariobench;

namespace {

constexpr int kInitialSetups = 5;
constexpr int kSetupsPerRep = 2;
constexpr int kMinReps = 6;
// Canary median (ms) that defines the reference host speed; runs on a
// 4-vCPU Xeon VM at 2.1 GHz read 2.2-3.3 ms.
constexpr double kReferenceCanaryMs = 2.75;
constexpr std::size_t kSpanCapacity = 1u << 20;
constexpr std::size_t kTraceKinds = 13;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "scenario_bench: %s\nusage: scenario_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

template <class T>
T parse_number(const std::string& flag, const char* text) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end) {
    usage((flag + ": '" + text + "' is not a number").c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage((flag + " needs a value").c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, v);
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, v);
      have[2] = true;
    } else if (flag == "--trace") {
      const int t = parse_number<int>(flag, v);
      if (t != 0 && t != 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
      have[3] = true;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  for (const bool h : have) {
    if (!h) usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return a;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host timings of one repetition.
struct RepTimes {
  double scenario_s = 0.0;
  double plan_s = 0.0;
  double events_per_s = 0.0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The per-layer metric names and units, in report order.
std::vector<std::pair<std::string, std::string>> per_layer_schema() {
  std::vector<std::pair<std::string, std::string>> s = {
      {"edge.topology_s", "s"},
      {"core.instance_s", "s"},
      {"core.joint.calls", "count"},
      {"core.joint.busy_s", "s"},
      {"core.joint.iterations", "count"},
      {"core.joint.surgery_evals", "count"},
      {"core.joint.us_per_surgery_eval", "us"},
      {"core.joint.resolve_ms_p50", "ms"},
      {"core.joint.resolve_ms_p90", "ms"},
      {"core.online.observe_calls", "count"},
      {"core.online.observe_s", "s"},
      {"core.online.non_solve_s", "s"},
      {"core.online.reoptimizations", "count"},
      {"core.online.failovers", "count"},
      {"core.online.degradations", "count"},
      {"core.online.fallbacks", "count"},
      {"core.online.plans_rejected", "count"},
      {"surgery.dp_us_per_call", "us"},
      {"surgery.dp_evaluations", "count"},
      {"baselines.decision_s", "s"},
      {"sim.init_s", "s"},
      {"sim.run_s", "s"},
      {"sim.controller_s", "s"},
      {"sim.engine_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.allocs_per_event", "allocs/event"},
      {"sim.tasks_arrived", "count"},
      {"sim.tasks_failed", "count"},
      {"sim.in_flight_end", "count"},
      {"sim.offload_fraction", "ratio"},
  };
  for (std::size_t k = 0; k < kTraceKinds; ++k) {
    s.emplace_back(std::string("sim.trace.") +
                       scalpel::trace_event_name(
                           static_cast<scalpel::TraceEventType>(k)),
                   "count");
  }
  const std::vector<std::pair<std::string, std::string>> tail = {
      {"sim.shard.count", "count"},
      {"sim.shard.lookahead_ms", "ms"},
      {"sim.shard.barriers", "count"},
      {"sim.shard.events_per_barrier", "count"},
      {"ctrl.ticks", "count"},
      {"ctrl.tick_s", "s"},
      {"ctrl.non_solve_s", "s"},
      {"ctrl.local_solves", "count"},
      {"ctrl.plan_changes", "count"},
      {"ctrl.useful_solve_ratio", "ratio"},
      {"ctrl.dead_letters", "count"},
      {"ctrl.cell_fallbacks", "count"},
      {"ctrl.coordinator_losses", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.trace_dropped", "count"},
      {"obs.gap_s", "s"},
  };
  s.insert(s.end(), tail.begin(), tail.end());
  return s;
}

/// Per-layer values of one traced repetition.
std::map<std::string, double> layer_values(const SpanRecorder& rec,
                                           const RepResult& r) {
  std::map<std::string, double> v = r.layer;
  auto get = [&](const char* key) {
    const auto it = r.layer.find(key);
    return it == r.layer.end() ? 0.0 : it->second;
  };
  const SpanTotal joint = rec.total("core.joint");
  const SpanTotal observe = rec.total("core.online.observe");
  const SpanTotal run = rec.total("sim.run");
  const SpanTotal tick = rec.total("ctrl.tick");
  const auto events = static_cast<double>(r.sim.events_processed);
  const double engine = run.self;
  v["core.joint.calls"] = static_cast<double>(joint.calls);
  v["core.joint.busy_s"] = joint.inclusive;
  const double evals = get("core.joint.surgery_evals");
  v["core.joint.us_per_surgery_eval"] =
      evals > 0.0 ? joint.inclusive / evals * 1e6 : 0.0;
  v["core.online.observe_calls"] = static_cast<double>(observe.calls);
  v["core.online.observe_s"] = observe.inclusive;
  v["core.online.non_solve_s"] = observe.self;
  v["baselines.decision_s"] = rec.total("baselines.decision").inclusive;
  v["sim.init_s"] = rec.total("sim.init").inclusive;
  v["sim.run_s"] = run.inclusive;
  v["sim.controller_s"] = rec.total("sim.controller").inclusive;
  v["sim.engine_s"] = engine;
  v["sim.events"] = events;
  v["sim.ns_per_event"] = events > 0.0 ? engine / events * 1e9 : 0.0;
  v["sim.allocs_per_event"] =
      events > 0.0 ? static_cast<double>(r.allocs) / events : 0.0;
  v["sim.tasks_arrived"] = static_cast<double>(r.sim.arrived);
  v["sim.tasks_failed"] = static_cast<double>(r.sim.failed_all);
  v["sim.in_flight_end"] = static_cast<double>(r.sim.in_flight_end);
  v["sim.offload_fraction"] = r.sim.offload_fraction;
  const double barriers = get("sim.shard.barriers");
  v["sim.shard.events_per_barrier"] = barriers > 0.0 ? events / barriers : 0.0;
  v["ctrl.ticks"] = static_cast<double>(tick.calls);
  v["ctrl.tick_s"] = tick.inclusive;
  v["ctrl.non_solve_s"] = tick.self;
  const double solves = get("ctrl.local_solves");
  v["ctrl.useful_solve_ratio"] =
      solves > 0.0 ? get("ctrl.plan_changes") / solves : 0.0;
  v["obs.gap_s"] = rec.total("scenario").self;
  return v;
}

std::string fmt_metric_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

/// "median X, pNN Y (n=Z)" under the percentile rule.
void print_timing(const char* name, const char* unit,
                  const std::vector<double>& xs) {
  const int pm = tail_permille(xs.size());
  std::printf("  %-22s median %.6g %s [q1 %.6g, q3 %.6g]", name, median(xs),
              unit, quantile(xs, 0.25), quantile(xs, 0.75));
  if (pm > 500) {
    std::printf(", p%g %.6g %s", pm / 10.0, quantile(xs, pm / 1000.0), unit);
  }
  std::printf(" (n=%zu)\n", xs.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  auto scenario = make_scenario(args.workload, args.seed);
  if (!scenario) usage(("unknown workload '" + args.workload + "'").c_str());

  std::vector<std::string> failures;
  SolveTally tally;
  std::size_t task_outcomes = 0;
  std::vector<Metric> metrics;

  try {
    Canary canary;
    for (int i = 0; i < 5; ++i) canary.sample();

    SpanRecorder rec(args.trace, kSpanCapacity);

    // --- Set-up, repeated before every repetition so its median spans the
    // same stretch of host time as scenario_s; the median is setup_s.
    std::vector<double> setup_s;
    std::vector<double> topology_s;
    std::vector<double> instance_s;
    auto run_setup = [&] {
      rec.set_keep(args.trace);
      rec.set_run(-1 - static_cast<int>(setup_s.size()));
      rec.reset_totals();
      {
        Scope s(rec, "setup");
        scenario->setup(rec);
      }
      setup_s.push_back(rec.total("setup").inclusive);
      topology_s.push_back(rec.total("edge.topology").inclusive);
      instance_s.push_back(rec.total("core.instance").inclusive);
    };
    for (int k = 0; k < kInitialSetups; ++k) run_setup();

    // --- Repetitions. The first is a warm-up: checked and counted, not
    // timed. A traced invocation alternates traced and untraced
    // repetitions, so the trace overhead compares neighbours.
    ResolvePool traced_pool;
    ResolvePool plain_pool;
    std::vector<RepTimes> plain;
    std::vector<RepTimes> traced;
    std::vector<std::map<std::string, double>> layers;
    std::uint64_t fingerprint = 0;
    RepResult first;
    RepResult task_traced;
    std::uint64_t offline_checks = 0;

    auto run_rep = [&](int index, bool traced_rep, bool trace_tasks) {
      canary.sample();
      for (int k = 0; k < kSetupsPerRep; ++k) run_setup();
      ResolvePool& pool = traced_rep ? traced_pool : plain_pool;
      rec.set_keep(traced_rep);
      rec.set_run(index);
      rec.reset_totals();
      pool.new_run();
      const std::size_t root = rec.spans().size();
      const std::uint64_t drops_before = rec.dropped();
      RepResult r;
      {
        Scope s(rec, "scenario");
        r = scenario->run_rep(rec, pool, trace_tasks);
      }
      for (auto& f : r.failures) failures.push_back(std::move(f));
      tally += r.solves;
      task_outcomes +=
          r.sim.completed_all + r.sim.failed_all + r.sim.shed_all;
      const std::uint64_t fp = sim_fingerprint(r.sim);
      if (index == 0) {
        fingerprint = fp;
      } else if (fp != fingerprint) {
        failures.push_back("repetition " + std::to_string(index) +
                           ": simulated statistics differ from the first");
      }

      RepTimes t;
      t.scenario_s = rec.total("scenario").inclusive;
      t.plan_s = rec.total(scenario->plan_span()).first;
      const double engine = rec.total("sim.run").self;
      t.events_per_s = static_cast<double>(r.sim.events_processed) / engine;

      if (traced_rep) {
        // Layer self times plus the gap must account for scenario_s, both
        // in the running totals and recomputed from the kept spans.
        double sum = 0.0;
        for (const auto& [name, tot] : rec.totals()) sum += tot.self;
        bool ok = std::abs(sum - t.scenario_s) <= 1e-9 * t.scenario_s;
        if (rec.dropped() == drops_before) {
          double offline = 0.0;
          for (const auto& [name, s] : self_times(rec.spans(), root)) {
            offline += s;
          }
          ok = ok && std::abs(offline - t.scenario_s) <= 1e-9 * t.scenario_s;
          ++offline_checks;
        }
        if (!ok) {
          failures.push_back("span self times do not add up to scenario_s");
        }
        layers.push_back(layer_values(rec, r));
      }
      if (index == 0) first = std::move(r);
      if (trace_tasks) task_traced = std::move(r);
      return t;
    };

    run_rep(0, false, false);
    for (auto& f : scenario->once_per_run_checks(first)) {
      failures.push_back(std::move(f));
    }
    const double t0 = rec.now();
    for (int i = 1;; ++i) {
      const bool traced_rep = args.trace && (i % 2 == 1);
      const RepTimes t = run_rep(i, traced_rep, false);
      (traced_rep ? traced : plain).push_back(t);
      const std::size_t done = args.trace ? std::min(traced.size(),
                                                     plain.size())
                                          : plain.size();
      if (rec.now() - t0 >= args.seconds &&
          done >= static_cast<std::size_t>(kMinReps)) {
        break;
      }
    }

    // The library's own per-task tracer runs in one extra, untimed
    // repetition, so it neither slows the timed ones nor grows set-up.
    const int reps_timed = static_cast<int>(plain.size() + traced.size());
    if (args.trace) run_rep(reps_timed + 1, false, true);

    auto column = [](const std::vector<RepTimes>& v, double RepTimes::*f) {
      std::vector<double> out;
      for (const auto& t : v) out.push_back(t.*f);
      return out;
    };
    const auto plain_scenario = column(plain, &RepTimes::scenario_s);

    std::printf("workload %s seed %llu: %zu timed repetitions%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                plain.size() + traced.size(),
                args.trace ? " (alternating traced/untraced)" : "");
    print_timing("setup_s", "s", setup_s);
    print_timing("scenario_s", "s", plain_scenario);
    print_timing("plan_s", "s", column(plain, &RepTimes::plan_s));
    print_timing("sim_events_per_s", "1/s",
                 column(plain, &RepTimes::events_per_s));
    std::printf("  solver calls/rep       %zu, DES events/rep %zu\n",
                rec.total("core.joint").calls,
                static_cast<std::size_t>(first.sim.events_processed));
    std::printf("  host.canary_ms         %.6g ms\n", canary.median_ms());
    if (!canary.ok()) failures.push_back("canary kernel gave a wrong answer");
    std::printf("  sim.fingerprint        %016llx\n",
                static_cast<unsigned long long>(fingerprint));

    if (!args.trace) {
      // Host timings are scaled to the reference host speed by the run's
      // canary median: the shared host drifts by 10-20 % over minutes,
      // which the canary sees and a code change does not move.
      const double host_scale = kReferenceCanaryMs / canary.median_ms();
      std::printf("  host scale             %.6g (reference canary %.3g ms)\n",
                  host_scale, kReferenceCanaryMs);
      const scalpel::SimMetrics& m = first.sim;
      metrics = {
          {"setup_s", "s", median(setup_s) * host_scale},
          {"scenario_s", "s", median(plain_scenario) * host_scale},
          {"plan_s", "s",
           median(column(plain, &RepTimes::plan_s)) * host_scale},
          {"sim_events_per_s", "1/s",
           median(column(plain, &RepTimes::events_per_s)) / host_scale},
          {"peak_rss_mb", "MiB", peak_rss_mib()},
          {"deadline_sat", "ratio", m.deadline_satisfaction},
          {"sim_latency_mean_ms", "ms", m.latency.mean() * 1e3},
          {"accuracy", "ratio", m.measured_accuracy},
      };
    } else {
      const auto traced_scenario = column(traced, &RepTimes::scenario_s);
      std::map<std::string, double> med;
      for (const auto& [name, unit] : per_layer_schema()) {
        std::vector<double> xs;
        for (const auto& l : layers) {
          const auto it = l.find(name);
          xs.push_back(it == l.end() ? 0.0 : it->second);
        }
        med[name] = median(xs);
      }
      med["edge.topology_s"] = median(topology_s);
      med["core.instance_s"] = median(instance_s);
      const auto& resolves = traced_pool.samples_ms();
      med["core.joint.resolve_ms_p50"] = quantile(resolves, 0.5);
      med["core.joint.resolve_ms_p90"] = quantile(resolves, 0.9);
      const DpProbe dp = scenario->dp_probe();
      med["surgery.dp_us_per_call"] = dp.us_per_call;
      med["surgery.dp_evaluations"] = dp.evaluations;
      if (!scalpel::perf::alloc_hook_linked()) {
        failures.push_back("traced binary lacks the allocation hook");
      }
      const auto& counts = task_traced.trace_counts;
      for (std::size_t k = 0; k < counts.size() && k < kTraceKinds; ++k) {
        med[std::string("sim.trace.") +
            scalpel::trace_event_name(
                static_cast<scalpel::TraceEventType>(k))] =
            static_cast<double>(counts[k]);
      }
      med["obs.trace_dropped"] =
          static_cast<double>(rec.dropped() + task_traced.trace_dropped);
      med["obs.trace_overhead_pct"] =
          (median(traced_scenario) / median(plain_scenario) - 1.0) * 100.0;
      print_timing("traced scenario_s", "s", traced_scenario);
      std::printf("  re-solves pooled: %zu (first solves excluded: %zu)\n",
                  resolves.size(), traced_pool.first_solves());
      if (resolves.size() > 0) print_timing("resolve_ms", "ms", resolves);
      std::printf("  span accounting checked on %llu traced repetitions\n",
                  static_cast<unsigned long long>(offline_checks));
      for (const auto& [name, unit] : per_layer_schema()) {
        metrics.push_back({name, unit, med[name]});
      }
      if (!args.trace_out.empty()) {
        std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
        const std::string json = spans_to_chrome_json(rec.spans());
        if (f == nullptr ||
            std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
          failures.push_back("could not write " + args.trace_out);
        }
        if (f != nullptr) std::fclose(f);
        std::printf("  chrome trace: %s (%zu spans)\n",
                    args.trace_out.c_str(), rec.spans().size());
      }
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string("exception: ") + e.what());
  }

  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              std::max<std::size_t>(1, attempted_ops(task_outcomes, tally)),
              failed_solves(tally), fmt_metric_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
