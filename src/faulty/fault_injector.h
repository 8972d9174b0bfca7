// Per-thread FP fault injector.
//
// Models the paper's "stochastic processor": a voltage-overscaled FPU whose
// arithmetic results are occasionally corrupted by a single-bit upset, while
// the integer/control core stays reliable.  Every faulty::Real arithmetic
// operation routes its IEEE-754 double result through the thread-local
// injector, which counts the op and, with probability `fault_rate`, flips
// one bit sampled from the configured BitDistribution.
//
// One fault process, simulated by geometric skip-ahead: instead of one
// Bernoulli RNG draw per op, the injector samples the number of clean ops
// until the next fault once per *fault* — from a shared per-rate
// GeometricGapSampler — and Execute() is then a single counter decrement +
// compare until the countdown hits zero.  The gap sampler's alias-table
// form keeps the per-fault cost at one draw + one probe even when a fault
// lands every few ops, so the one schedule covers the whole rate range
// (0 and 1 included: their gaps are the constants "never" and 0).  Flop
// accounting is exact (it derives from the scheduled-gap arithmetic, so the
// hot path does not even touch a counter), and a fixed seed reproduces the
// trial bit-for-bit.
//
// Two scheduling paths consume the one gap stream: ScheduleFaults walks
// the default model's arithmetic faults (one op, or a block kernel's whole
// window), and a private per-op gap step serves comparisons and every
// non-default model, whose effects (forcing masks, bursts, windows) are
// applied op by op.
//
// The linalg layer runs faulty::Real kernels in bulk against the same
// schedule (the block-kernel API below, linalg/faulty_blas.h).  The
// equivalence oracles it is tested against — a per-op Bernoulli injector
// and a per-scalar faulty type — live with the tests, in tests/oracle/.
#pragma once

#include <cstdint>

#include "faulty/bit_distribution.h"
#include "faulty/clean_run_tally.h"
#include "faulty/fault_model.h"
#include "faulty/gap_sampler.h"
#include "faulty/lfsr.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

// The countdown branch is taken for all but ~rate of the ops; telling the
// compiler keeps the fault machinery out of the fall-through path.
#if defined(__GNUC__) || defined(__clang__)
#define ROBUSTIFY_LIKELY(x) __builtin_expect(!!(x), 1)
#else
#define ROBUSTIFY_LIKELY(x) (x)
#endif

namespace robustify::faulty {

// Accounting for one activation scope (see core::WithFaultyFpu).
struct ContextStats {
  std::uint64_t faulty_flops = 0;    // FP ops executed on the faulty FPU
  std::uint64_t faults_injected = 0; // how many of them were corrupted
  // Corruptions split by op class (they sum to faults_injected), plus the
  // number of sticky/intermittent windows the temporal model opened.  All
  // zero except faults_arith/faults_compare under the default model.
  std::uint64_t faults_arith = 0;
  std::uint64_t faults_compare = 0;
  std::uint64_t faults_memory = 0;
  std::uint64_t windows_opened = 0;
};

class FaultInjector {
 public:
  // `bits` is captured by pointer and must outlive the injector; use
  // SharedBitDistribution() for the built-in models.
  FaultInjector(double fault_rate, const BitDistribution& bits, std::uint64_t seed);
  FaultInjector(double fault_rate, const BitDistribution& bits, std::uint64_t seed,
                const FaultModel& model);
  // A temporary would dangle (only a pointer is kept); make it a compile
  // error instead of a use-after-free on the first injected fault.
  FaultInjector(double fault_rate, BitDistribution&& bits, std::uint64_t seed) = delete;

  // Hot path: clean until the countdown expires.
  double Execute(double clean_result) {
    const std::uint64_t remaining = countdown_;
    if (ROBUSTIFY_LIKELY(remaining != 0)) {
      countdown_ = remaining - 1;
      return clean_result;
    }
    return FaultPath(clean_result);
  }

  // FP comparisons run through the subtractor and the comparator flags; a
  // timing fault there inverts the predicate outcome.
  bool ExecuteComparison(bool clean_result) {
    const std::uint64_t remaining = countdown_;
    if (ROBUSTIFY_LIKELY(remaining != 0)) {
      countdown_ = remaining - 1;
      return clean_result;
    }
    return FaultPathComparison(clean_result);
  }

  // Memory-load corruption (op class kOpClassMemory): the linalg kernel
  // layer routes element reads through here when the model enables the
  // class (callers must check routes_loads() first — the default model
  // keeps loads entirely off the injector, preserving the historical op
  // stream).  A routed load counts as one scheduled op, exactly like an
  // arithmetic result.
  double ExecuteLoad(double clean_value) {
    const std::uint64_t remaining = countdown_;
    if (ROBUSTIFY_LIKELY(remaining != 0)) {
      countdown_ = remaining - 1;
      return clean_value;
    }
    return ModelFault(clean_value, kOpClassMemory);
  }

  // True when the active model corrupts memory loads (implies a
  // non-default model).
  bool routes_loads() const { return routes_loads_; }

  const FaultModel& model() const { return model_; }

  // ---- block-kernel API (linalg/faulty_blas) ------------------------------
  //
  // A block kernel executes the next `CleanRun()` ops as one tight loop over
  // raw doubles and then accounts for them with a single ConsumeClean —
  // observationally identical to that many Execute calls (the countdown is
  // the only per-op state, and stats derive from it), but with nothing of
  // the injector on the clean path.  Past the clean run, ScheduleFaults
  // hands the kernel the next window's faults as data.

  // Ops guaranteed clean from now under the deterministic gap schedule.
  // While a sticky window (stuck-at / intermittent) is live the countdown
  // is pinned at zero, so this returns 0 and block kernels degrade to the
  // per-scalar boundary path op by op — which is exactly what keeps the
  // block kernels bit-identical to per-scalar code under the sticky models.
  std::uint64_t CleanRun() const { return countdown_; }

  // Accounts for `n` clean ops executed outside Execute().  Precondition:
  // n <= CleanRun().
  void ConsumeClean(std::uint64_t n) { countdown_ -= n; }

  // True when ScheduleFaults may be called: the default transient model,
  // at any rate.  Under a non-default model kernels step faults through
  // Execute.
  bool SchedulesFaults() const { return model_default_; }

  // Walks the faults that land in the next `ops` ops, calling
  // on_fault(offset, bit) for each in op order (offset < ops, counted from
  // the next op), and accounts for all `ops` ops.  The caller applies each
  // fault by flipping `bit` in the result of op `offset`.  Observationally
  // identical to `ops` Execute calls: the RNG is consumed in FaultPath's
  // order (the next gap, then this fault's bit) and the stats match.  The
  // loop makes no telemetry call: each gap bumps its bucket of the scope's
  // clean-run histogram (clean_run_tally.h), and the walk's gap draws and
  // sampled `fault` trace instants are booked once, after it.
  // Precondition: SchedulesFaults().
  template <class OnFault>
  void ScheduleFaults(std::uint64_t ops, const OnFault& on_fault) {
    // Local copies: stores the callback makes cannot alias them, so the RNG
    // state, the samplers and the bookkeeping stay in registers across the
    // whole walk.
    const GeometricGapSampler& gaps = *gaps_;
    const BitDistribution& bits = *bits_;
    Lfsr rng = rng_;
    const std::uint64_t first = countdown_;
    std::uint64_t countdown = first;
    GapTally tally = clean_runs_.Tally();
    std::uint64_t faults = 0;
    std::uint64_t at = 0;  // offset of the next unscheduled op
    while (countdown < ops - at) {
      at += countdown;
      countdown = gaps.Sample(rng, tally);
      ++faults;
      on_fault(at, bits.sample(rng));
      ++at;
    }
    rng_ = rng;
    countdown_ = countdown - (ops - at);
    // The walk executed `ops` ops; ops executed = scheduled_ - countdown_.
    scheduled_ += ops + countdown_ - first;
    faults_ += faults;
    faults_arith_ += faults;
    if (faults != 0) {
      gaps.BookDraws(faults, tally.tail_draws);
      telemetry::FaultInstants(faults);
    }
  }

  // The scope's clean-run histogram (injector.clean_run), kHistogramBuckets
  // counts; null with telemetry compiled out.  core::WithFaultyFpu books it
  // at scope exit.
  const std::uint64_t* CleanRunBuckets() const { return clean_runs_.data(); }

  ContextStats stats() const {
    ContextStats s;
    // One invariant (mod 2^64): ops executed = scheduled_ - countdown_,
    // with countdown_ inside the last sampled gap.  A live sticky window
    // moves the suspended remainder of the gap to pending_gap_ (outside
    // both terms) and restores it symmetrically on expiry, so the invariant
    // holds through every window transition.
    s.faulty_flops = scheduled_ - countdown_;
    s.faults_injected = faults_;
    s.faults_arith = faults_arith_;
    s.faults_compare = faults_compare_;
    s.faults_memory = faults_memory_;
    s.windows_opened = windows_opened_;
    return s;
  }

 private:
  static constexpr std::uint64_t kNever = ~0ull;

  // Cold paths (out of line, src/faulty/fault_injector.cpp): corrupt the
  // result and re-arm the countdown.  FaultPathComparison serves every
  // model.
  double FaultPath(double clean_result);
  bool FaultPathComparison(bool clean_result);
  // Clean ops before the next fault, K ~ Geometric(rate), from the shared
  // per-rate sampler (see gap_sampler.h).
  std::uint64_t SampleGap() { return gaps_->Sample(rng_); }
  // The per-op gap step of FaultPathComparison and ModelFault: the
  // suspended-gap countdown inside a sticky window, or a fresh gap outside
  // one.  True when the op takes the scheduled fault.
  bool StepGap();
  static double FlipBit(double value, int bit);

  // Non-default temporal-model machinery (cold, out of line).  ModelFault
  // owns the whole arithmetic/load op under a non-default model: the gap
  // step, firing the scheduled fault, and applying any live window effect
  // (stuck-bit forcing, intermittent in-window corruption).
  double ModelFault(double clean_result, unsigned op_class);
  double FireScheduledFault(double value, unsigned op_class);
  void ArmStuckWindow();
  void OpenWindow(std::uint64_t length);
  void CloseWindow();
  double CorruptClass(double value, unsigned op_class);
  void CountClassFault(unsigned op_class);

  const BitDistribution* bits_;
  const GeometricGapSampler* gaps_;
  Lfsr rng_;
  std::uint64_t countdown_ = 0;   // clean ops left before the next fault
  std::uint64_t scheduled_ = 0;   // ops covered by the sampled gaps
  std::uint64_t faults_ = 0;
  // The scope's clean runs: every gap that re-arms the countdown (not the
  // first, nor a gap suspended by a sticky window).
  CleanRunHistogram clean_runs_;

  // ---- temporal-model state (untouched under the default model) ----------
  FaultModel model_{};
  bool model_default_ = true;     // fast-path flag: skip all of the below
  bool routes_loads_ = false;     // model routes memory loads (kOpClassMemory)
  std::uint64_t window_ops_left_ = 0;  // live stuck/intermittent window ops
  std::uint64_t pending_gap_ = 0;  // skip-ahead gap suspended by the window
  std::uint64_t stuck_or_ = 0;     // live stuck-at-1 forcing mask
  std::uint64_t stuck_and_ = ~0ull;  // live stuck-at-0 forcing mask
  std::uint64_t window_threshold_ = 0;  // window_rate scaled to uint64
  std::uint64_t faults_arith_ = 0;
  std::uint64_t faults_compare_ = 0;
  std::uint64_t faults_memory_ = 0;
  std::uint64_t windows_opened_ = 0;
};

namespace detail {

// The active injector for this thread; null means "clean FPU".
inline thread_local FaultInjector* tls_injector = nullptr;

// Swap the active injector, returning the previous one (for RAII restore).
inline FaultInjector* ExchangeThreadInjector(FaultInjector* next) {
  FaultInjector* prev = tls_injector;
  tls_injector = next;
  return prev;
}

}  // namespace detail

// Routes one FP result through the thread's injector (clean when inactive).
inline double Execute(double clean_result) {
  FaultInjector* inj = detail::tls_injector;
  return inj ? inj->Execute(clean_result) : clean_result;
}

// Routes one FP comparison outcome through the thread's injector.
inline bool ExecuteComparison(bool clean_result) {
  FaultInjector* inj = detail::tls_injector;
  return inj ? inj->ExecuteComparison(clean_result) : clean_result;
}

// True when a fault-injection scope is active on this thread.
inline bool InjectorActive() { return detail::tls_injector != nullptr; }

// True when the active scope's model corrupts memory loads — the linalg
// kernels consult this before routing element reads through ExecuteLoad.
inline bool LoadsRouted() {
  const FaultInjector* inj = detail::tls_injector;
  return inj != nullptr && inj->routes_loads();
}

// Routes one memory load through the thread's injector.  Callers must have
// checked LoadsRouted(); the null test here is only a safety net for
// kernels instantiated outside a scope.
inline double ExecuteLoad(double clean_value) {
  FaultInjector* inj = detail::tls_injector;
  return inj ? inj->ExecuteLoad(clean_value) : clean_value;
}

}  // namespace robustify::faulty
