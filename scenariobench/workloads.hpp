#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "sim/simulator.hpp"

namespace scenariobench {

/// What one repetition produced besides its span totals.
struct RepResult {
  /// The repetition's DES run.
  scalpel::SimMetrics sim;
  /// Per-layer counts read from the libraries after the run (re-solves,
  /// barriers, local solves, ...), by per-layer metric name.
  std::map<std::string, double> layer;
  SolveTally solves;
  /// Output checks that failed, one line each.
  std::vector<std::string> failures;
  /// Per TraceEventType counts and ring overwrites (task tracing only).
  std::vector<std::size_t> trace_counts;
  std::uint64_t trace_dropped = 0;
  /// operator-new calls inside sim.run (traced binary only).
  std::uint64_t allocs = 0;
};

/// The surgery layer probed from outside: dp_exit_setting once per distinct
/// device model with the workload's solver options.
struct DpProbe {
  double us_per_call = 0.0;
  double evaluations = 0.0;
};

/// One workload: set-up (topology, instance, scripts) and a repetition
/// (every solve, controller tick and DES run). The caller opens the
/// "setup" and "scenario" root spans around these calls.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual void setup(SpanRecorder& rec) = 0;
  virtual RepResult run_rep(SpanRecorder& rec, ResolvePool& pool,
                            bool trace_tasks) = 0;
  /// Span whose first call delivers the first complete plan (plan_s).
  virtual const char* plan_span() const = 0;
  /// Untimed checks made once per run against the first repetition.
  virtual std::vector<std::string> once_per_run_checks(const RepResult&) {
    return {};
  }
  virtual DpProbe dp_probe() const = 0;
};

std::unique_ptr<Scenario> make_scenario(const std::string& name,
                                        std::uint64_t seed);
const std::vector<std::string>& workload_names();

/// Equal fingerprints mean bit-identical simulated statistics.
std::uint64_t sim_fingerprint(const scalpel::SimMetrics& m);

}  // namespace scenariobench
