// The percentile rule and the output digest of the repository benchmark.
// Quantiles themselves come from speedlight::stats::quantile.
//
// Percentile rule: a timing is reported as its median plus the highest
// percentile that still has at least ten samples beyond it, and the sample
// count is stated. A run that cannot support the percentile a workload
// promises (period_ms.p95 needs >= 200 samples) is a configuration error.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace perfbench {

/// Samples strictly beyond the p-quantile (p in [0, 1)) of `n` samples:
/// the ranks above ceil(p * n).
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto at = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return at >= n ? 0 : n - at;
}

/// True when the p-quantile of `n` samples has at least ten samples beyond
/// it.
[[nodiscard]] inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

/// The highest whole percentile (0..99) with at least ten samples beyond
/// it; -1 when even the minimum has fewer (n < 10).
[[nodiscard]] inline int highest_percentile(std::size_t n) {
  for (int pct = 99; pct >= 0; --pct) {
    if (percentile_supported(n, pct / 100.0)) return pct;
  }
  return -1;
}

/// FNV-1a over a stream of 64-bit words: the simulated-output digest.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  /// Folded to 52 bits so it survives a JSON double exactly.
  [[nodiscard]] std::uint64_t value() const {
    return (h_ ^ (h_ >> 52)) & ((std::uint64_t{1} << 52) - 1);
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
