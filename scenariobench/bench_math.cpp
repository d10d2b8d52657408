#include "bench_math.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace scenariobench {

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

int tail_permille(std::size_t n) {
  static constexpr int kLadder[] = {999, 990, 950, 900, 750, 500};
  for (const int pm : kLadder) {
    // Samples strictly beyond the percentile, in exact integer arithmetic.
    if (n * static_cast<std::size_t>(1000 - pm) / 1000 >= 10) return pm;
  }
  return 0;
}

SpanRecorder::SpanRecorder(bool keep_spans, std::size_t capacity)
    : keep_(keep_spans),
      capacity_(capacity),
      epoch_(std::chrono::steady_clock::now()) {
  if (keep_) spans_.reserve(std::min<std::size_t>(capacity_, 1u << 16));
}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void SpanRecorder::open(const char* name) {
  int index = -1;
  if (keep_) {
    if (spans_.size() < capacity_) {
      index = static_cast<int>(spans_.size());
      Span s;
      s.name = name;
      s.parent = stack_.empty() ? -1 : stack_.back().index;
      s.run = run_;
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  stack_.push_back(Open{name, now(), 0.0, index});
  if (index >= 0) spans_[static_cast<std::size_t>(index)].start =
      stack_.back().start;
}

double SpanRecorder::close() {
  if (stack_.empty()) throw std::logic_error("span closed twice");
  const double end = now();
  const Open top = stack_.back();
  stack_.pop_back();
  const double dur = end - top.start;
  if (top.index >= 0) spans_[static_cast<std::size_t>(top.index)].end = end;
  if (!stack_.empty()) stack_.back().child += dur;
  SpanTotal& t = totals_[top.name];
  t.inclusive += dur;
  t.self += dur - top.child;
  if (t.calls == 0) t.first = dur;
  ++t.calls;
  return dur;
}

SpanTotal SpanRecorder::total(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? SpanTotal{} : it->second;
}

std::map<std::string, double> self_times(const std::vector<Span>& spans,
                                         std::size_t root) {
  std::map<std::string, double> out;
  if (root >= spans.size()) return out;
  // Parents are opened before their children, so one forward pass marks
  // the subtree and one more subtracts each child from its parent.
  std::vector<char> in_tree(spans.size(), 0);
  std::vector<double> self(spans.size(), 0.0);
  in_tree[root] = 1;
  for (std::size_t i = root; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i != root) {
      if (s.parent < 0 || !in_tree[static_cast<std::size_t>(s.parent)])
        continue;
      in_tree[i] = 1;
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    self[i] += s.end - s.start;
  }
  for (std::size_t i = root; i < spans.size(); ++i) {
    if (in_tree[i]) out[spans[i].name] += self[i];
  }
  return out;
}

std::string spans_to_chrome_json(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"run\":%d}}",
                  i == 0 ? "" : ",\n", s.name, s.start * 1e6,
                  (s.end - s.start) * 1e6, s.run, i, s.parent, s.run);
    out += buf;
  }
  out += "]}\n";
  return out;
}

bool ResolvePool::add(const std::string& owner, double ms) {
  if (seen_.insert(owner).second) {
    ++first_solves_;
    return false;
  }
  samples_.push_back(ms);
  return true;
}

SolveTally& SolveTally::operator+=(const SolveTally& o) {
  calls += o.calls;
  threw += o.threw;
  refused += o.refused;
  fallbacks += o.fallbacks;
  return *this;
}

std::size_t failed_solves(const SolveTally& t) {
  const std::size_t explained = t.threw + t.refused;
  return explained + (t.fallbacks > explained ? t.fallbacks - explained : 0);
}

std::size_t attempted_ops(std::size_t task_outcomes, const SolveTally& t) {
  return task_outcomes + t.calls;
}

BacklogVerdict backlog_guard(const std::vector<double>& in_flight,
                             std::size_t skip) {
  BacklogVerdict v;
  if (in_flight.size() <= skip + 1) return v;
  const std::size_t n = in_flight.size() - skip;
  const std::size_t half = n / 2;
  double a = 0.0;
  double b = 0.0;
  for (std::size_t i = 0; i < half; ++i) a += in_flight[skip + i];
  for (std::size_t i = half; i < n; ++i) b += in_flight[skip + i];
  v.first_half = a / static_cast<double>(half);
  v.second_half = b / static_cast<double>(n - half);
  v.ok = v.second_half <= 1.5 * v.first_half + 2.0;
  return v;
}

void Fingerprint::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ULL;
  }
}

void Fingerprint::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

}  // namespace scenariobench
