#include "faulty/fault_injector.h"

#include <cstring>

namespace robustify::faulty {

FaultInjector::FaultInjector(double fault_rate, const BitDistribution& bits,
                             std::uint64_t seed)
    : bits_(&bits),
      // Rates outside (0, 1) (NaN included) share the two fixed samplers.
      gaps_(&GeometricGapSampler::Shared(
          fault_rate > 0.0 ? (fault_rate < 1.0 ? fault_rate : 1.0) : 0.0)),
      rng_(seed ^ 0xA5A5A5A55A5A5A5Aull) {
  countdown_ = SampleGap();
  scheduled_ = countdown_;
}

FaultInjector::FaultInjector(double fault_rate, const BitDistribution& bits,
                             std::uint64_t seed, const FaultModel& model)
    : FaultInjector(fault_rate, bits, seed) {
  model_ = model;
  // Clamp the sampled-law parameters into their supported domains once, so
  // the per-fault samplers and window bookkeeping never re-validate.
  if (!(model_.stuck_mean_ops >= 1.0)) model_.stuck_mean_ops = 1.0;
  if (model_.burst_width_max < 1) model_.burst_width_max = 1;
  if (model_.burst_width_max > 64) model_.burst_width_max = 64;
  if (!(model_.window_mean_ops >= 1.0)) model_.window_mean_ops = 1.0;
  if (!(model_.window_rate >= 0.0)) model_.window_rate = 0.0;
  if (model_.window_rate > 1.0) model_.window_rate = 1.0;
  model_default_ = IsDefaultModel(model_);
  if (!model_default_) {
    routes_loads_ = (model_.op_classes & kOpClassMemory) != 0;
    if (model_.window_rate > 0.0) {
      window_threshold_ = model_.window_rate >= 1.0
                              ? kNever
                              : static_cast<std::uint64_t>(
                                    model_.window_rate * 18446744073709551616.0);
      if (window_threshold_ == 0) window_threshold_ = 1;
    }
  }
}

double FaultInjector::FlipBit(double value, int bit) {
  std::uint64_t word;
  std::memcpy(&word, &value, sizeof(word));
  word ^= (1ull << bit);
  std::memcpy(&value, &word, sizeof(value));
  return value;
}

double FaultInjector::FaultPath(double clean_result) {
  if (!model_default_) return ModelFault(clean_result, kOpClassArith);
  // One scheduled fault on this op: the same walk a block kernel takes.
  double result = clean_result;
  ScheduleFaults(1, [&](std::uint64_t, int bit) { result = FlipBit(result, bit); });
  return result;
}

// The one gap step outside ScheduleFaults.  Reached with countdown_ == 0.
// Outside a sticky window the op takes the scheduled fault and a fresh gap
// re-arms the countdown.  Inside one, countdown_ stays pinned at 0 while
// the base schedule keeps running in pending_gap_, so the scheduled fault
// rate is unchanged inside the window; each windowed op is accounted for
// individually.
bool FaultInjector::StepGap() {
  if (window_ops_left_ != 0) {
    ++scheduled_;
    if (pending_gap_ != 0) {
      --pending_gap_;
      return false;
    }
    pending_gap_ = SampleGap();
    return true;
  }
  const std::uint64_t gap = SampleGap();
  scheduled_ += gap + 1;
  countdown_ = gap;
  clean_runs_.Tally().AddGap(gap);
  return true;
}

// ---- non-default temporal models --------------------------------------------
//
// The non-default models' machinery, and FaultPathComparison, which serves
// every model.  The default arithmetic stream never reaches any of it.

void FaultInjector::CountClassFault(unsigned op_class) {
  ++faults_;
  if (op_class == kOpClassArith) {
    ++faults_arith_;
  } else if (op_class == kOpClassCompare) {
    ++faults_compare_;
  } else {
    ++faults_memory_;
  }
  telemetry::FaultInstants(1);
}

// One transient single-bit corruption attributed to `op_class`.
double FaultInjector::CorruptClass(double value, unsigned op_class) {
  CountClassFault(op_class);
  return FlipBit(value, bits_->sample(rng_));
}

// Samples a stuck bit, its stuck value, and the window duration, then arms
// the forcing masks.  Shared by the arithmetic and comparison fire paths —
// a comparator fault latches the same datapath bit even though the
// predicate itself carries no result word to force.
void FaultInjector::ArmStuckWindow() {
  const int bit = bits_->sample(rng_);
  const bool stuck_one = (rng_.next() & 1) != 0;
  const std::uint64_t duration = SampleStuckDuration(model_.stuck_mean_ops, rng_);
  OpenWindow(duration);
  stuck_or_ = stuck_one ? (1ull << bit) : 0;
  stuck_and_ = stuck_one ? ~0ull : ~(1ull << bit);
}

// Opens (or, from a nested fire, replaces) a sticky window of `length`
// routed ops.  On first open the remainder of the live
// gap moves to pending_gap_ and countdown_ is pinned at zero: CleanRun()
// reports 0, bulk clean runs are disabled, and every routed op takes the
// model path until the window expires.  scheduled_ gives the suspended gap
// back so the flops invariant (scheduled_ - countdown_) is unchanged by the
// suspension; windowed ops then bump scheduled_ one by one.
void FaultInjector::OpenWindow(std::uint64_t length) {
  ++windows_opened_;
  const bool was_open = window_ops_left_ != 0;
  window_ops_left_ = length;
  if (!was_open) {
    pending_gap_ = countdown_;
    scheduled_ -= pending_gap_;
    countdown_ = 0;
  }
}

// Restores the base schedule suspended by OpenWindow and clears the stuck
// forcing masks.
void FaultInjector::CloseWindow() {
  stuck_or_ = 0;
  stuck_and_ = ~0ull;
  countdown_ = pending_gap_;
  scheduled_ += pending_gap_;
  pending_gap_ = 0;
}

// Applies one scheduled fault to an arithmetic or memory-load result under
// the active temporal model.  A fault landing on a masked-out op class
// re-arms the schedule without corrupting (the caller already consumed the
// gap draw), so each enabled class independently sees the configured rate
// and a disabled class sees exactly zero.
double FaultInjector::FireScheduledFault(double value, unsigned op_class) {
  if ((model_.op_classes & op_class) == 0) return value;
  switch (model_.temporal) {
    case Temporal::kTransient:
      return CorruptClass(value, op_class);
    case Temporal::kBurst: {
      // k adjacent bits flip starting at the sampled base position,
      // clamped at the top of the word.
      const int base = bits_->sample(rng_);
      const int width = SampleBurstWidth(model_.burst_width_max, rng_);
      CountClassFault(op_class);
      std::uint64_t word;
      std::memcpy(&word, &value, sizeof(word));
      for (int b = base; b < base + width && b < 64; ++b) word ^= 1ull << b;
      std::memcpy(&value, &word, sizeof(value));
      return value;
    }
    case Temporal::kStuckAt:
      // The forcing (and the per-op fault accounting) is applied by the
      // window-effect step in ModelFault, so the opening op is covered too.
      ArmStuckWindow();
      return value;
    case Temporal::kIntermittent:
      // The opening fault corrupts like a transient and starts the
      // high-rate window.
      OpenWindow(SampleWindowLength(model_.window_mean_ops, rng_));
      return CorruptClass(value, op_class);
  }
  return value;
}

// The whole per-op decision for arithmetic/load results under a non-default
// model: the gap step, firing, and the live window effect.  Reached via
// FaultPath / ExecuteLoad, always with countdown_ == 0.
double FaultInjector::ModelFault(double clean_result, unsigned op_class) {
  const bool fire = StepGap();
  double result = clean_result;
  if (fire) result = FireScheduledFault(result, op_class);
  if (window_ops_left_ != 0) {
    if (model_.temporal == Temporal::kStuckAt) {
      if ((model_.op_classes & op_class) != 0) {
        // The stuck line drives its bit on every routed op in the window, so
        // every forced op counts as a fault — including ops whose result
        // already carried the stuck value.  Counting only value-changing ops
        // would make the count depend on the exact bits of intermediate
        // results, which are not stable across kernel paths (bulk loops
        // and per-scalar code round identically but the compiler is free to
        // schedule them differently); the structural count depends only on
        // the op stream and window placement, which are.
        CountClassFault(op_class);
        std::uint64_t word;
        std::memcpy(&word, &result, sizeof(word));
        const std::uint64_t forced = (word | stuck_or_) & stuck_and_;
        std::memcpy(&result, &forced, sizeof(result));
      }
    } else if (model_.temporal == Temporal::kIntermittent) {
      // Ops that already fired the scheduled fault skip the in-window
      // Bernoulli; everything else in an enabled class faults at
      // window_rate.  One RNG word per windowed op keeps the stream shape
      // independent of the outcome.
      if (!fire && (model_.op_classes & op_class) != 0 &&
          rng_.next() < window_threshold_) {
        result = CorruptClass(result, op_class);
      }
    }
    if (--window_ops_left_ == 0) CloseWindow();
  }
  return result;
}

// Comparisons, under every model (a timing fault in the subtractor or the
// comparator flags inverts the predicate).  Predicates carry no result
// word: transient and burst invert the outcome, a stuck fault opens its
// window without altering the predicate (the stuck bit lives in the
// datapath, not the flag), and intermittent inverts + opens.
bool FaultInjector::FaultPathComparison(bool clean_result) {
  const bool fire = StepGap();
  bool result = clean_result;
  if (fire && (model_.op_classes & kOpClassCompare) != 0) {
    switch (model_.temporal) {
      case Temporal::kTransient:
      case Temporal::kBurst:
        // No word for a burst to spread across: both invert the predicate
        // (and draw nothing extra — the width has nowhere to land).
        CountClassFault(kOpClassCompare);
        result = !result;
        break;
      case Temporal::kStuckAt:
        ArmStuckWindow();
        break;
      case Temporal::kIntermittent:
        OpenWindow(SampleWindowLength(model_.window_mean_ops, rng_));
        CountClassFault(kOpClassCompare);
        result = !result;
        break;
    }
  }
  if (window_ops_left_ != 0) {
    if (model_.temporal == Temporal::kIntermittent && !fire &&
        (model_.op_classes & kOpClassCompare) != 0 &&
        rng_.next() < window_threshold_) {
      CountClassFault(kOpClassCompare);
      result = !result;
    }
    if (--window_ops_left_ == 0) CloseWindow();
  }
  return result;
}

}  // namespace robustify::faulty
