// Per-rate geometric gap sampler: how many clean ops until the next fault.
//
// The skip-ahead injector draws the fault-to-fault gap K ~ Geometric(rate),
// P(K = k) = rate * (1 - rate)^k, once per *fault*.  Two precomputed forms
// cover the open range (0, 1) with one strategy, and the end points are
// constants:
//
//  * rate >= kTableMinRate (1/64): a Walker alias table over the gap values
//    {0 .. 62} plus a tail slot.  One RNG draw and one probe yield the gap;
//    the tail slot (gap >= 63, probability (1 - r)^63 <= 0.38) adds 63 and
//    redraws — valid because the geometric distribution is memoryless.  This
//    replaces the log() of the inverse-CDF form, which above ~1/16 faults
//    per op used to cost more than the per-op Bernoulli draw it was saving.
//  * rate <  kTableMinRate: inverse CDF, gap = log(u) / log(1 - rate).  At
//    these rates the mean gap exceeds 64 ops, so one log() per fault is
//    already amortized to well under a draw per op, while the alias table's
//    tail slot would dominate and make it loop.
//  * rates 0 and 1: every draw returns kNever at rate 0 and 0 at rate 1
//    (every op faults), without taking a word from the LFSR or booking a
//    draw.
//
// Both forms are deterministic in the LFSR stream, and the choice between
// them depends only on the rate, so a fixed (seed, rate) reproduces a trial
// bit-for-bit.  Tables are built once per process and shared across trials
// via Shared() (a sweep revisits the same handful of rates thousands of
// times).
#pragma once

#include <array>
#include <cstdint>

#include "faulty/alias_table.h"
#include "faulty/clean_run_tally.h"
#include "faulty/lfsr.h"
#include "telemetry/telemetry.h"

namespace robustify::faulty {

class GeometricGapSampler {
 public:
  // Gaps too large to represent: the injector treats this as "no fault in
  // any realizable run" and its mod-2^64 flop accounting stays exact.
  static constexpr std::uint64_t kNever = ~0ull;

  // Slots 0..62 of the alias table are literal gap values; slot 63 is the
  // memoryless tail (gap >= 63).
  static constexpr int kTableGaps = 63;
  static constexpr int kTableSlots = 64;

  // Below this rate the mean gap is >= 64 ops and the inverse-CDF form wins;
  // at or above it the tail probability (1 - r)^63 is <= 0.38 and the alias
  // table terminates in ~1.6 draws.
  static constexpr double kTableMinRate = 1.0 / 64.0;

  // `rate` must be in [0, 1].
  explicit GeometricGapSampler(double rate);

  double rate() const { return rate_; }
  bool uses_table() const { return table_; }

  // One gap draw from `rng`; kNever when the sampled gap exceeds 2^64.
  // Tallies the gap as a clean run into `tally` (a GapTally, or an
  // UntalliedGaps for a gap that is not one; see clean_run_tally.h): a
  // first-draw table gap through the outcome's bucket table, any other gap,
  // on its already-cold path, through its computed bucket.  The draws
  // themselves are booked by BookDraws, once per run of samples.  Forced
  // inline: it is the first half of every scheduled fault, and the
  // compiler's size heuristics otherwise leave it as a call.
  template <class Tally>
  ROBUSTIFY_ALWAYS_INLINE std::uint64_t Sample(Lfsr& rng, Tally& tally) const {
    if (!table_) {
      const std::uint64_t gap = fixed_ ? fixed_gap_ : InverseCdf(rng.next());
      tally.AddGap(gap);
      return gap;
    }
    int outcome = AliasSelect(rng.next(), stay_threshold_.data(), alias_.data());
    if (outcome < kTableGaps) {
      tally.AddTableGap(outcome);
      return static_cast<std::uint64_t>(outcome);
    }
    // Tail: gap >= 63; memorylessness restarts the draw.
    std::uint64_t base = 0;
    do {
      base += kTableGaps;
      ++tally.tail_draws;
      outcome = AliasSelect(rng.next(), stay_threshold_.data(), alias_.data());
    } while (outcome == kTableGaps);
    const std::uint64_t gap = base + static_cast<std::uint64_t>(outcome);
    tally.AddGap(gap);
    return gap;
  }

  // Books the draws behind `samples` gaps, `tail_draws` table redraws
  // among them, as gap.draws.table or gap.draws.invcdf.
  void BookDraws(std::uint64_t samples, std::uint64_t tail_draws) const {
    if (table_) {
      telemetry::Count(telemetry::Counter::kGapDrawsTable, samples + tail_draws);
    } else if (!fixed_) {
      telemetry::Count(telemetry::Counter::kGapDrawsInvCdf, samples);
    }
  }

  // One gap draw, not a clean run of the fault schedule (an injector's
  // first gap, a gap suspended by a sticky window), its draws booked right
  // away.
  std::uint64_t Sample(Lfsr& rng) const {
    UntalliedGaps tally;
    const std::uint64_t gap = Sample(rng, tally);
    BookDraws(1, tally.tail_draws);
    return gap;
  }

  // Process-wide cache keyed by the rate's bit pattern: built on first use,
  // immutable and lock-free to read afterwards (the injector constructor
  // runs once per trial, so the lookup lock is off the per-op path).
  static const GeometricGapSampler& Shared(double rate);

 private:
  // The inverse-CDF gap for one raw draw.  Out of line: below
  // kTableMinRate a draw is rare and costs a log().  Taking the word rather
  // than the Lfsr keeps the caller's RNG state in registers.
  std::uint64_t InverseCdf(std::uint64_t word) const;
  void BuildAliasTable();

  double rate_ = 0.0;
  double inv_log1m_rate_ = 0.0;  // 1 / ln(1 - rate)
  bool table_ = false;
  bool fixed_ = false;            // rate 0 or 1: every draw is fixed_gap_
  std::uint64_t fixed_gap_ = 0;
  // Walker alias table over {gap 0..62, tail}: slot i is returned when the
  // 58-bit residual draw is below stay_threshold_[i], else alias_[i].
  std::array<std::uint64_t, kTableSlots> stay_threshold_{};
  std::array<std::uint8_t, kTableSlots> alias_{};
};

}  // namespace robustify::faulty
