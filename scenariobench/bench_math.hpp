#pragma once

// The scenario benchmark's own arithmetic: order statistics, the span
// recorder and its self-time accounting, the pooled re-solve set, the
// attempted/failed tally, the backlog guard and a result fingerprint.
// Nothing here depends on the scalpel libraries, so bench_math_test.cpp
// checks it in isolation.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace scenariobench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> xs);

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (the "type 7" rule); 0 when empty.
double quantile(std::vector<double> xs, double q);

/// The highest percentile, from {50, 75, 90, 95, 99, 99.9}, that has at
/// least ten of `n` samples beyond it, in per-mille (500 ... 999). Returns 0
/// when even the median has fewer than ten samples beyond it (n < 20).
int tail_permille(std::size_t n);

/// One timed call into a layer. `parent` indexes the enclosing span in the
/// recorder's span list (-1 for a root); `run` is the repetition it belongs
/// to (setup repetitions and scenario repetitions are numbered apart).
struct Span {
  const char* name = "";
  double start = 0.0;  // seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;
  int run = 0;
};

/// Per-name totals over the spans closed since the last reset_totals().
struct SpanTotal {
  double inclusive = 0.0;  // summed durations
  double self = 0.0;       // summed durations minus their children's
  double first = -1.0;     // duration of the first call (-1 = none yet)
  std::size_t calls = 0;
};

/// Times nested calls into the program's layers. Every span is timed and
/// folded into per-name totals (inclusive and self time); with `keep_spans`
/// the spans themselves are also kept, up to `capacity`, for the per-layer
/// breakdown and the Chrome trace. Spans must close in LIFO order.
class SpanRecorder {
 public:
  SpanRecorder(bool keep_spans, std::size_t capacity);

  void set_run(int run) { run_ = run; }
  /// Switches span keeping on or off; only between repetitions.
  void set_keep(bool keep) { keep_ = keep; }
  void open(const char* name);
  /// Closes the innermost open span; returns its duration in seconds.
  double close();

  const std::map<std::string, SpanTotal>& totals() const { return totals_; }
  SpanTotal total(const std::string& name) const;
  void reset_totals() { totals_.clear(); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Spans not kept because the store was full.
  std::uint64_t dropped() const { return dropped_; }

  double now() const;

 private:
  struct Open {
    const char* name;
    double start;
    double child;  // summed durations of closed children
    int index;     // position in spans_, -1 when not kept
  };

  bool keep_;
  std::size_t capacity_;
  int run_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::map<std::string, SpanTotal> totals_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name) : rec_(rec) { rec_.open(name); }
  ~Scope() { rec_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
};

/// Self time per span name over the subtree rooted at spans[root]: each
/// span's duration minus the durations of its direct children. The root's
/// own self time is the time between its layer calls.
std::map<std::string, double> self_times(const std::vector<Span>& spans,
                                         std::size_t root);

/// Chrome trace-event JSON of the spans: one complete ("X") event each,
/// thread = run, with parent and run ids in args.
std::string spans_to_chrome_json(const std::vector<Span>& spans);

/// Re-solve latencies pooled over every solver call except the first call
/// of each solver owner (a controller, or one cell of the control plane).
/// new_run() forgets the owners seen, since each repetition builds fresh
/// controllers.
class ResolvePool {
 public:
  /// Returns true when the call was pooled (not its owner's first solve).
  bool add(const std::string& owner, double ms);
  void new_run() { seen_.clear(); }
  const std::vector<double>& samples_ms() const { return samples_; }
  std::size_t first_solves() const { return first_solves_; }

 private:
  std::set<std::string> seen_;
  std::vector<double> samples_;
  std::size_t first_solves_ = 0;
};

/// Solver calls and their failure modes in one run.
struct SolveTally {
  std::size_t calls = 0;
  std::size_t threw = 0;      // the solver raised
  std::size_t refused = 0;    // validate_plan() refused the output
  std::size_t fallbacks = 0;  // the controller fell back to another plan

  SolveTally& operator+=(const SolveTally& o);
};

/// Failed operations of a tally. A throw always makes the controller fall
/// back, and so may a refusal, so only fallbacks beyond the throws and
/// refusals count again.
std::size_t failed_solves(const SolveTally& t);

/// The contract's `attempted`: tasks that reached an outcome (completed,
/// failed or shed) plus solver calls.
std::size_t attempted_ops(std::size_t task_outcomes, const SolveTally& t);

/// Verdict of the backlog guard over a time-averaged in-flight series.
struct BacklogVerdict {
  bool ok = true;
  double first_half = 0.0;   // mean in flight, first half of the windows
  double second_half = 0.0;  // mean in flight, second half
};

/// A stable system keeps its in-flight count level; a backlog that grows
/// with the horizon roughly triples from the first half of the run to the
/// second. The guard skips `skip` warm-up windows and fails when the second
/// half's mean exceeds 1.5x the first half's plus two tasks of slack.
BacklogVerdict backlog_guard(const std::vector<double>& in_flight,
                             std::size_t skip);

/// FNV-1a over integers and the exact bits of doubles: equal fingerprints
/// mean bit-identical statistics.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace scenariobench
