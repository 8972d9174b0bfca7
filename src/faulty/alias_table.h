// Shared Walker alias tables: construction (Vose's stable variant) and the
// branch-free draw.
//
// Used by BitDistribution (64 bit positions) and GeometricGapSampler
// (63 gap values + tail slot).  Both samplers split one 64-bit draw into a
// slot index (top bits) and a 58-bit residual compared against the slot's
// stay threshold, so the construction scales thresholds by 2^58.
#pragma once

#include <cstdint>
#include <vector>

#if defined(__GNUC__) || defined(__clang__)
#define ROBUSTIFY_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ROBUSTIFY_ALWAYS_INLINE inline
#endif

namespace robustify::faulty {

// One alias-table draw: the top 6 bits of `u` pick the slot, the 58-bit
// residual decides between the slot and its alias.  The select is computed
// as a mask rather than a conditional: the comparison is data-random, so a
// branch would mispredict on a large share of draws.
inline int AliasSelect(std::uint64_t u, const std::uint64_t* stay_threshold,
                       const std::uint8_t* alias) {
  const std::uint64_t slot = u >> 58;
  const std::uint64_t r = u & ((1ull << 58) - 1);
  const std::uint64_t take_alias = 0 - static_cast<std::uint64_t>(r >= stay_threshold[slot]);
  return static_cast<int>(slot ^ ((slot ^ alias[slot]) & take_alias));
}

// Fills stay_threshold/alias (each `n` slots, n <= 256) from the normalized
// probabilities `probs` (must sum to ~1).  Slot i resolves to itself when
// the 58-bit residual draw is below stay_threshold[i], else to alias[i].
inline void BuildWalkerAliasTable(const double* probs, int n,
                                  std::uint64_t* stay_threshold,
                                  std::uint8_t* alias) {
  // scaled[i] = p_i * n; slots below 1 are topped up by donors above 1, so
  // every slot splits between at most two outcomes: itself (with
  // probability scaled[i] after top-up) and alias[i].
  constexpr double kSlotScale = static_cast<double>(1ull << 58);
  std::vector<double> scaled(static_cast<std::size_t>(n));
  std::vector<int> small, large;
  for (int i = 0; i < n; ++i) {
    scaled[static_cast<std::size_t>(i)] = probs[i] * n;
    (scaled[static_cast<std::size_t>(i)] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const int s = small.back();
    small.pop_back();
    const int l = large.back();
    large.pop_back();
    stay_threshold[s] =
        static_cast<std::uint64_t>(scaled[static_cast<std::size_t>(s)] * kSlotScale);
    alias[s] = static_cast<std::uint8_t>(l);
    scaled[static_cast<std::size_t>(l)] -= 1.0 - scaled[static_cast<std::size_t>(s)];
    (scaled[static_cast<std::size_t>(l)] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are exactly 1 up to rounding: the slot always returns itself.
  for (const int i : large) {
    stay_threshold[i] = ~0ull;
    alias[i] = static_cast<std::uint8_t>(i);
  }
  for (const int i : small) {
    stay_threshold[i] = ~0ull;
    alias[i] = static_cast<std::uint8_t>(i);
  }
}

}  // namespace robustify::faulty
