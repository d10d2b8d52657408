#pragma once

#include "core/decision.hpp"
#include "core/instance.hpp"
#include "sched/offloading.hpp"
#include "surgery/exit_setting.hpp"

namespace scalpel {

/// What the optimizer's round selection minimizes.
enum class JointObjective {
  /// Rate-weighted expected latency (the default; the paper's headline).
  kMeanLatency,
  /// Predicted deadline-satisfaction ratio (maximized) with mean latency as
  /// the tie-breaker — for SLO-driven deployments. The per-device surgery
  /// step still proposes by expected latency (a monotone proxy below the
  /// deadline); the objective decides which alternation round is kept.
  kDeadlineSatisfaction,
};

/// Options for the joint optimizer. The two enable_* switches implement the
/// ablations reported in the evaluation (surgery-only / allocation-only).
struct JointOptions {
  JointObjective objective = JointObjective::kMeanLatency;
  /// Alternating (surgery <-> allocation) rounds.
  std::size_t max_iterations = 6;
  /// Stop when the objective improves by less than this fraction.
  double convergence_tol = 0.01;

  /// Ablation: optimize model surgery (partition + exits). When false the
  /// plan is frozen to the Neurosurgeon partition computed under the initial
  /// equal allocation, with no exits.
  bool enable_surgery = true;
  /// Within surgery, allow early exits (false = partition-only surgery).
  bool enable_exits = true;
  /// Extension: allow INT8-quantized uploads as a surgery dimension (1/4 of
  /// the activation bytes for a small accuracy penalty). Off by default to
  /// stay faithful to the base reproduction; bench_f13 studies it.
  bool enable_quantized_upload = false;
  /// Ablation: optimize resource allocation. When false the initial
  /// equal-split bandwidth / round-robin servers / equal shares stay fixed.
  bool enable_allocation = true;

  /// Exit-threshold grid and exit count bound used by the surgery DP.
  std::vector<double> theta_grid = {0.0, 0.15, 0.30, 0.45, 0.60, 0.75};
  std::size_t max_exits = 3;
  std::size_t dp_coverage_bins = 60;

  BestResponseOptions best_response;
};

/// Diagnostics from a solve (drives the scalability/convergence benches).
struct JointReport {
  std::size_t iterations = 0;
  std::vector<double> objective_history;  // mean latency after each round
  double solve_seconds = 0.0;
  /// Sum of the surgery DPs' `evaluations`; the round-invariant device-only
  /// DP counts once per solve.
  std::size_t surgery_evaluations = 0;
};

/// The paper's contribution: jointly choose, for every device, its model
/// surgery (early-exit setting + partition point) and its resource
/// allocation (edge server, compute share, uplink bandwidth), minimizing the
/// rate-weighted expected latency subject to per-device accuracy floors.
///
/// Structure: alternating optimization. The surgery step solves, per device,
/// a generalized exit-setting DP over every clean cut, pricing backbone
/// segments on the side of the cut they execute and charging the upload to
/// tasks crossing it. The allocation step re-splits cell bandwidth by the
/// square-root rule, re-assigns servers by best-response dynamics over a
/// Kleinrock-shared queueing model, and re-derives compute shares. Rounds
/// repeat until the objective stalls.
class JointOptimizer {
 public:
  explicit JointOptimizer(JointOptions opts = {});

  Decision optimize(const ProblemInstance& instance) const;
  Decision optimize(const ProblemInstance& instance, JointReport* report) const;

  const JointOptions& options() const { return opts_; }

 private:
  JointOptions opts_;
};

}  // namespace scalpel
