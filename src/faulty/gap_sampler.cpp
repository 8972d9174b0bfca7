#include "faulty/gap_sampler.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace robustify::faulty {

GeometricGapSampler::GeometricGapSampler(double rate) : rate_(rate) {
  inv_log1m_rate_ = 1.0 / std::log1p(-rate);
  table_ = rate >= kTableMinRate;
  if (table_) BuildAliasTable();
}

// Inverse CDF from one draw: u in (0, 1] (53 uniform bits shifted into the
// open-at-zero interval so log(u) is finite), gap = log(u) / log(1 - rate).
std::uint64_t GeometricGapSampler::InverseCdf(std::uint64_t word) const {
  telemetry::Count(telemetry::Counter::kGapDrawsInvCdf);
  const double u = (static_cast<double>(word >> 11) + 1.0) * 0x1.0p-53;
  const double gap = std::log(u) * inv_log1m_rate_;  // >= 0
  // Casting a double >= 2^64 is undefined; clamp far gaps to "never".
  if (!(gap < 18446744073709549568.0)) return kNever;
  return static_cast<std::uint64_t>(gap);
}

void GeometricGapSampler::BuildAliasTable() {
  // Outcome probabilities: P(gap = k) = r (1-r)^k for k < 63, and the tail
  // P(gap >= 63) = (1-r)^63 in the last slot.
  std::array<double, kTableSlots> p{};
  double remaining = 1.0;
  for (int k = 0; k < kTableGaps; ++k) {
    p[static_cast<std::size_t>(k)] = rate_ * remaining;
    remaining *= 1.0 - rate_;
  }
  p[kTableGaps] = remaining;
  BuildWalkerAliasTable(p.data(), kTableSlots, stay_threshold_.data(), alias_.data());
}

const GeometricGapSampler& GeometricGapSampler::Shared(double rate) {
  // Keyed by the exact bit pattern: sweeps pass the same literal rates every
  // trial, so the map stays a handful of entries.  node-based map + mutex:
  // entries are never invalidated once handed out.
  static std::mutex mu;
  static std::unordered_map<std::uint64_t, std::unique_ptr<GeometricGapSampler>>
      cache;
  std::uint64_t key;
  std::memcpy(&key, &rate, sizeof(key));
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<GeometricGapSampler>& slot = cache[key];
  if (!slot) slot = std::make_unique<GeometricGapSampler>(rate);
  return *slot;
}

}  // namespace robustify::faulty
