#include "canary.hpp"

#include <chrono>
#include <vector>

#include "bench_math.hpp"

namespace scenariobench {
namespace {

constexpr int kN = 192;
// Checksum of one kernel call; any other value means a miscompiled kernel.
constexpr std::uint64_t kKnownChecksum = 0x72f0ed9d3a0e24a6ULL;

std::uint64_t kernel() {
  std::vector<std::uint32_t> a(kN * kN);
  std::vector<std::uint32_t> b(kN * kN);
  std::vector<std::uint32_t> c(kN * kN, 0);
  std::uint32_t x = 2463534242u;
  for (auto* m : {&a, &b}) {
    for (auto& v : *m) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      v = x;
    }
  }
  for (int i = 0; i < kN; ++i) {
    for (int k = 0; k < kN; ++k) {
      const std::uint32_t aik = a[i * kN + k];
      for (int j = 0; j < kN; ++j) c[i * kN + j] += aik * b[k * kN + j];
    }
  }
  Fingerprint f;
  for (const std::uint32_t v : c) f.add(std::uint64_t{v});
  return f.value();
}

}  // namespace

void Canary::sample() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t checksum = kernel();
  ms_.push_back(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
  ok_ = ok_ && checksum == kKnownChecksum;
}

double Canary::median_ms() const { return median(ms_); }

}  // namespace scenariobench
