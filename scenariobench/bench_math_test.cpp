// Logic tests for the benchmark's own arithmetic. run.py runs this binary
// before every measurement and refuses to report if any check fails.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_math.hpp"

using namespace scenariobench;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

void test_order_statistics() {
  check(median({}) == 0.0, "median of nothing is 0");
  check(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  // Python's statistics.quantiles(method='inclusive') agrees with type 7.
  check(near(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.25), 3.25),
        "type-7 lower quartile");
  check(near(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.1),
        "type-7 p90");
}

void test_percentile_rule() {
  check(tail_permille(0) == 0, "no samples: no percentile");
  check(tail_permille(19) == 0, "19 samples: 9 beyond the median");
  check(tail_permille(20) == 500, "20 samples: median");
  check(tail_permille(39) == 500, "39 samples: 9 beyond p75");
  check(tail_permille(40) == 750, "40 samples: p75");
  check(tail_permille(99) == 750, "99 samples: 9 beyond p90");
  check(tail_permille(100) == 900, "100 samples: p90");
  check(tail_permille(199) == 900, "199 samples: 9 beyond p95");
  check(tail_permille(200) == 950, "200 samples: p95");
  check(tail_permille(1000) == 990, "1000 samples: p99");
  check(tail_permille(10000) == 999, "10000 samples: p99.9");
}

// Hand-built tree:  scenario [0,10]
//                     core.joint [1,4]
//                     sim.run [5,9]
//                       sim.controller [6,8]
//                         core.joint [6.5,7]
// plus a span of another tree that must be ignored.
void test_self_times() {
  std::vector<Span> spans = {
      {"setup", -5.0, -1.0, -1, 0},        {"scenario", 0.0, 10.0, -1, 1},
      {"core.joint", 1.0, 4.0, 1, 1},      {"sim.run", 5.0, 9.0, 1, 1},
      {"sim.controller", 6.0, 8.0, 3, 1},  {"core.joint", 6.5, 7.0, 4, 1},
      {"scenario", 11.0, 12.0, -1, 2},
  };
  const auto self = self_times(spans, 1);
  check(near(self.at("scenario"), 10.0 - 3.0 - 4.0), "root self = gaps");
  check(near(self.at("core.joint"), 3.0 + 0.5), "joint self sums calls");
  check(near(self.at("sim.run"), 4.0 - 2.0), "run minus its callback");
  check(near(self.at("sim.controller"), 2.0 - 0.5), "callback minus solve");
  check(self.count("setup") == 0, "other roots excluded");
  double sum = 0.0;
  for (const auto& [name, s] : self) sum += s;
  check(near(sum, 10.0), "self times add up to the root's duration");

  // The recorder's running totals agree with the offline subtraction.
  SpanRecorder rec(true, 16);
  rec.open("scenario");
  rec.open("sim.run");
  rec.open("core.joint");
  rec.close();
  rec.close();
  rec.close();
  const auto offline = self_times(rec.spans(), 0);
  for (const auto& [name, s] : offline) {
    check(std::abs(rec.total(name).self - s) < 1e-9,
          "recorder self time matches self_times()");
  }
  check(rec.spans()[2].parent == 1 && rec.spans()[1].parent == 0,
        "parents recorded");
  check(rec.total("core.joint").calls == 1 &&
            rec.total("core.joint").first >= 0.0,
        "first-call duration recorded");

  SpanRecorder full(true, 1);
  full.open("a");
  full.open("b");
  full.close();
  full.close();
  check(full.spans().size() == 1 && full.dropped() == 1,
        "spans beyond capacity are counted as dropped");
  check(full.total("b").calls == 1, "dropped spans still count in totals");
}

void test_resolve_pool() {
  ResolvePool pool;
  // Run 1: the online controller's first solve is excluded.
  check(!pool.add("online", 50.0), "first solve of a controller excluded");
  check(pool.add("online", 40.0), "second solve pooled");
  // Run 2: fresh controller and two cells, each first solve excluded.
  pool.new_run();
  check(!pool.add("online", 51.0), "first solve excluded again per run");
  check(!pool.add("cell-a", 15.0), "first solve of cell a excluded");
  check(!pool.add("cell-b", 16.0), "first solve of cell b excluded");
  check(pool.add("cell-a", 14.0), "cell a re-solve pooled");
  check(pool.add("online", 45.0), "online re-solve pooled");
  check(pool.samples_ms() == std::vector<double>({40.0, 14.0, 45.0}),
        "pooled set is every call but each owner's first");
  check(pool.first_solves() == 4, "first solves counted");
}

void test_attempted_failed() {
  SolveTally t;
  t.calls = 10;
  check(failed_solves(t) == 0 && attempted_ops(100, t) == 110,
        "clean run: tasks plus calls attempted, none failed");
  t.threw = 1;
  t.fallbacks = 1;
  check(failed_solves(t) == 1, "a throw and its fallback fail once");
  t.refused = 2;
  t.fallbacks = 2;
  check(failed_solves(t) == 3, "refusals count even without a fallback");
  t.fallbacks = 5;
  check(failed_solves(t) == 5, "unexplained fallbacks count");
  SolveTally sum;
  sum += t;
  sum += t;
  check(sum.calls == 20 && failed_solves(sum) == 10, "tallies add");
}

void test_backlog_guard() {
  std::vector<double> level(40, 12.0);
  level[30] = 30.0;  // a burst does not trip it
  check(backlog_guard(level, 2).ok, "level backlog passes");
  std::vector<double> growing;
  for (int i = 0; i < 40; ++i) growing.push_back(5.0 * i);
  const BacklogVerdict v = backlog_guard(growing, 2);
  check(!v.ok && v.second_half > 2.0 * v.first_half, "linear growth fails");
  check(backlog_guard({0.1, 0.0, 0.3, 0.2}, 0).ok,
        "tiny counts pass on the absolute slack");
  check(backlog_guard({}, 3).ok, "empty series passes");
}

void test_fingerprint() {
  Fingerprint a;
  Fingerprint b;
  a.add(std::uint64_t{7});
  a.add(0.1 + 0.2);
  b.add(std::uint64_t{7});
  b.add(0.3);
  check(a.value() != b.value(), "fingerprint sees the last bit of a double");
}

}  // namespace

int main() {
  test_order_statistics();
  test_percentile_rule();
  test_self_times();
  test_resolve_pool();
  test_attempted_failed();
  test_backlog_guard();
  test_fingerprint();
  if (g_failures != 0) {
    std::printf("bench_math_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("bench_math_test: all checks passed\n");
  return 0;
}
