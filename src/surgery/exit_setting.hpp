#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "surgery/exit_policy.hpp"

namespace scalpel {

/// Configuration for exit-setting optimization: choose which candidate exits
/// to enable and each exit's threshold so that expected latency is minimized
/// subject to an expected-accuracy floor.
struct ExitSettingOptions {
  double min_accuracy = 0.0;  // constraint: E[accuracy] >= min_accuracy
  /// Threshold grid searched per enabled exit.
  std::vector<double> theta_grid = {0.0, 0.15, 0.30, 0.45, 0.60, 0.75};
  std::size_t max_exits = 4;  // at most this many enabled exits
  /// Coverage discretization for the DP (bins across [0, 1]).
  std::size_t coverage_bins = 100;
  /// Input-difficulty distribution the policy will face.
  DifficultyModel difficulty;
};

struct ExitSettingResult {
  ExitPolicy policy;
  ExitStats stats;
  double expected_latency = 0.0;
  bool feasible = false;  // false if no setting meets the accuracy floor
  /// Configurations examined (for scalability plots). For the DP: the label
  /// transitions kept by its accuracy-to-go bound, plus the polish step's
  /// exact evaluations.
  std::size_t evaluations = 0;
};

/// Exhaustive search over subsets x theta grid — exponential; the optimality
/// reference used in tests and in the scalability bench's small instances.
ExitSettingResult exhaustive_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts);

/// Greedy marginal-improvement construction — fast, no optimality guarantee.
ExitSettingResult greedy_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts);

/// Coverage-discretized dynamic program (the paper-style "exit setting
/// algorithm with lower time complexity"). Exploits that once the covered
/// difficulty mass entering a candidate is known, the candidate's latency and
/// accuracy contributions are independent of earlier choices. Maintains a
/// Pareto frontier over (accuracy, latency) per (candidate, coverage bin);
/// near-optimal up to coverage discretization.
ExitSettingResult dp_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts);

/// Pre-priced per-candidate costs for the generalized DP. The joint
/// optimizer uses this to price backbone segments on whichever side of the
/// partition cut they execute, and to charge the upload across the cut to
/// every task still running there.
struct ExitCostTable {
  /// segment[i]: cost of the backbone stretch (candidate i-1, candidate i],
  /// paid by every task reaching candidate i (includes any upload crossing).
  std::vector<double> segment;
  /// head[i]: candidate i's head cost, paid by every task reaching it when
  /// the exit is enabled.
  std::vector<double> head;
  /// Cost of the stretch after the last candidate to the final exit.
  double tail = 0.0;
};

/// Expected cost of a policy under a cost table (same integration as
/// evaluate_policy's latency but with externally supplied prices).
double policy_cost(const std::vector<ExitCandidate>& candidates,
                   const ExitPolicy& policy, const ExitStats& stats,
                   const ExitCostTable& costs);

/// The cost-independent half of the exit-setting DP over one candidate list:
/// for every (candidate, coverage bin, theta) the coverage bin a label moves
/// to when the exit is enabled and the accuracy mass it gains there
/// (fire x conditional correctness), plus a backward accuracy-to-go upper
/// bound per (stage, bin). Everything here depends only on the candidates,
/// the accuracy model, the difficulty model, the theta grid and the coverage
/// bins, so one lattice serves every cost table (cut, device, round) and
/// every accuracy floor and exit budget priced over that configuration.
class ExitLattice {
 public:
  ExitLattice(const std::vector<ExitCandidate>& candidates,
              const AccuracyModel& acc, const ExitSettingOptions& opts);

  /// True if this lattice was built for `opts`'s theta grid, coverage bins
  /// and difficulty over a candidate list of this size. (Callers must also
  /// pass the same candidates and accuracy model it was built from.)
  bool matches(const std::vector<ExitCandidate>& candidates,
               const AccuracyModel& acc,
               const ExitSettingOptions& opts) const;

  std::size_t bins() const { return bins_; }
  std::size_t thetas() const { return thetas_; }
  /// Difficulty mass above bin b's coverage: the share of tasks still
  /// running there.
  double reach(std::size_t b) const { return reach_[b]; }
  /// Bins reached by enabling candidate i from bin b, one per theta.
  const std::uint16_t* next_bins(std::size_t i, std::size_t b) const {
    return &next_bin_[(i * bins_ + b) * thetas_];
  }
  /// Accuracy mass gained by enabling candidate i from bin b, per theta.
  const double* gains(std::size_t i, std::size_t b) const {
    return &gain_[(i * bins_ + b) * thetas_];
  }
  /// Upper bound on the accuracy a label at bin b still collects from
  /// candidate i onward, final exit included (i == candidate count is the
  /// terminal stage).
  /// It ignores the exit budget, so it holds for every max_exits.
  double to_go(std::size_t i, std::size_t b) const {
    return to_go_[i * bins_ + b];
  }

 private:
  std::size_t stages_ = 0;
  std::size_t bins_ = 0;
  std::size_t thetas_ = 0;
  std::vector<double> theta_grid_;
  double difficulty_a_ = 1.0;
  double difficulty_b_ = 1.0;
  double a_max_ = 0.0;
  std::vector<double> reach_;            // [bin]
  std::vector<std::uint16_t> next_bin_;  // [candidate][bin][theta]
  std::vector<double> gain_;             // [candidate][bin][theta]
  std::vector<double> to_go_;            // [stage 0..n][bin]
};

/// The lattices one solve needs: one per distinct (candidate list,
/// difficulty) pair, built on first use and freed with the set.
class ExitLatticeSet {
 public:
  /// The lattice for `opts` over `candidates`; references stay valid for the
  /// set's lifetime.
  const ExitLattice& get(const std::vector<ExitCandidate>& candidates,
                         const AccuracyModel& acc,
                         const ExitSettingOptions& opts);

 private:
  struct Entry {
    const std::vector<ExitCandidate>* candidates;
    std::unique_ptr<ExitLattice> lattice;
  };
  std::vector<Entry> entries_;
};

/// Buffers of the DP's forward pass, reused across calls so a solve that
/// runs thousands of DPs allocates them once.
struct ExitSettingWorkspace {
  struct Label {
    double accuracy;      // accumulated accuracy mass
    double latency;       // accumulated expected latency (cost)
    std::int32_t step;    // index into `steps`; -1 = no exits enabled
    std::uint32_t exits;  // enabled exits so far
  };
  /// Parent-pointer arena: only the winning label's chain is materialized.
  struct Step {
    std::int32_t parent;
    std::uint16_t candidate;
    std::uint16_t theta;  // index into the theta grid
  };
  /// frontier[b] / next[b]: Pareto set of labels in coverage bin b, sorted
  /// by accuracy (latency rises strictly along it).
  std::vector<std::vector<Label>> frontier;
  std::vector<std::vector<Label>> next;
  std::vector<Step> steps;
};

/// Inserts `label` into a Pareto set kept sorted by accuracy, with the DP's
/// dominance rule: a label is dominated by one at least as accurate (within
/// 1e-12) and at most as slow (within 1e-12). Returns false if `label` is
/// dominated; otherwise removes every label it dominates and inserts it.
/// Leaves the same set contents as a linear scan plus erase over an
/// unsorted set fed the same labels.
bool insert_pareto(std::vector<ExitSettingWorkspace::Label>& set,
                   const ExitSettingWorkspace::Label& label);

/// Generalized DP over an explicit cost table. `expected_latency` in the
/// result is the table cost of the chosen policy (exact, recomputed).
/// Builds a lattice and a workspace for this call alone.
ExitSettingResult dp_exit_setting_costs(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ExitCostTable& costs,
    const ExitSettingOptions& opts);

/// The same DP over a prebuilt lattice (which must match `opts`) and a
/// caller-owned workspace. Labels that cannot reach the accuracy floor even
/// with the lattice's accuracy-to-go bound are dropped as they are
/// generated; `evaluations` counts the transitions kept.
ExitSettingResult dp_exit_setting_costs(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ExitCostTable& costs,
    const ExitSettingOptions& opts, const ExitLattice& lattice,
    ExitSettingWorkspace& workspace);

/// dp_exit_setting over a prebuilt lattice and a caller-owned workspace.
ExitSettingResult dp_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts, const ExitLattice& lattice,
    ExitSettingWorkspace& workspace);

}  // namespace scalpel
