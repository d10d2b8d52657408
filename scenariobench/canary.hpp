#pragma once

#include <vector>

namespace scenariobench {

/// Host-speed canary: a fixed integer matrix-multiply kernel that shares no
/// code with the scalpel libraries. Its time moves only when the machine
/// does, so two sets of runs that disagree can be told apart: a moved canary
/// means the host changed, a steady one means the code did. The benchmark
/// samples it before every repetition, so the median covers the whole run.
class Canary {
 public:
  /// Times one kernel call and checks its answer.
  void sample();
  double median_ms() const;
  /// False once any call returned a wrong checksum.
  bool ok() const { return ok_; }

 private:
  std::vector<double> ms_;
  bool ok_ = true;
};

}  // namespace scenariobench
