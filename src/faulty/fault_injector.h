// Per-thread FP fault injector.
//
// Models the paper's "stochastic processor": a voltage-overscaled FPU whose
// arithmetic results are occasionally corrupted by a single-bit upset, while
// the integer/control core stays reliable.  Every faulty::Real arithmetic
// operation routes its IEEE-754 double result through the thread-local
// injector, which counts the op and, with probability `fault_rate`, flips
// one bit sampled from the configured BitDistribution.
//
// Hot path (geometric skip-ahead): instead of one Bernoulli RNG draw per
// op, the injector samples the number of clean ops until the next fault
// once per *fault* — from a shared per-rate GeometricGapSampler — and
// Execute() is then a single counter decrement + compare until the
// countdown hits zero.  The gap sampler's alias-table form keeps the
// per-fault cost at one draw + one probe even when a fault lands every few
// ops, so skip-ahead is the single strategy for the whole rate range
// (1e-7 .. 0.5 and beyond); the original per-op Bernoulli implementation
// survives only as the statistical test oracle (Strategy::kPerOp, selected
// explicitly by tests and benches).  Flop accounting stays exact in both
// modes (skip-ahead derives it from the scheduled-gap arithmetic, so the hot
// path does not even touch a counter), and a fixed seed + strategy still
// reproduces the trial bit-for-bit.  Note: the *fault stream* for a given
// seed differs between the strategies — they are statistically, not
// bitwise, equivalent (tests/test_statistical.cpp holds them to that).
#pragma once

#include <cstdint>

#include "faulty/bit_distribution.h"
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

// Kernel engine for the linalg layer under one injector.  Both engines
// produce the *same* fault stream for a fixed seed:
//
//  * block  — linalg kernels run the stretch the deterministic gap schedule
//    guarantees clean (CleanRun) as a tight loop over raw doubles, then
//    take the faults of the next window up front (ScheduleFaults) and apply
//    them as XOR masks on the op results of a second, branch-free
//    instantiation of the same loop (src/linalg/faulty_blas.h).  The
//    production engine.
//  * scalar — every faulty::Real op routes through Execute one scalar at a
//    time: the equivalence oracle, selected only by tests and benches.
//
// The block path executes the identical IEEE-754 op sequence (the build pins
// -ffp-contract=off) and consumes the RNG at the same op positions, so
// trials are bit-identical across engines (tests/test_block_engine.cpp).
enum class Engine {
  kBlock,   // bulk clean runs between scheduled faults (production)
  kScalar,  // per-scalar Execute for every op (equivalence oracle)
};

// A live sticky (stuck-at / intermittent) window snapshotted at injector
// scope exit so the next scope of the same trial can resume it — a stuck
// line in silicon doesn't heal between kernel calls (see
// core::TrialFaultScope).  Dead (ops_left == 0) under the default model and
// for scopes whose window expired naturally.
struct CarriedWindow {
  std::uint64_t ops_left = 0;
  std::uint64_t stuck_or = 0;       // stuck-at-1 forcing mask
  std::uint64_t stuck_and = ~0ull;  // stuck-at-0 forcing mask
  Temporal temporal = Temporal::kTransient;
  bool live() const { return ops_left != 0; }
};

class FaultInjector {
 public:
  enum class Strategy {
    kSkipAhead,  // geometric countdown (the production strategy, all rates)
    kPerOp,      // per-op Bernoulli draw (reference oracle for the tests)
  };

  // `bits` is captured by pointer and must outlive the injector; use
  // SharedBitDistribution() for the built-in models.  `engine` only tells
  // the linalg kernels running under this injector which path to take.
  FaultInjector(double fault_rate, const BitDistribution& bits, std::uint64_t seed,
                Strategy strategy = Strategy::kSkipAhead, Engine engine = Engine::kBlock);
  FaultInjector(double fault_rate, const BitDistribution& bits, std::uint64_t seed,
                const FaultModel& model, Strategy strategy = Strategy::kSkipAhead,
                Engine engine = Engine::kBlock);
  // A temporary would dangle (only a pointer is kept); make it a compile
  // error instead of a use-after-free on the first injected fault.
  FaultInjector(double fault_rate, BitDistribution&& bits, std::uint64_t seed,
                Strategy strategy = Strategy::kSkipAhead,
                Engine engine = Engine::kBlock) = delete;

  // Hot path: clean until the countdown expires.  In per-op mode the
  // countdown is pinned to zero, so control falls through to the original
  // inline Bernoulli decision on every op.
  double Execute(double clean_result) {
    const std::uint64_t remaining = countdown_;
    if (ROBUSTIFY_LIKELY(remaining != 0)) {
      countdown_ = remaining - 1;
      return clean_result;
    }
    if (per_op_) {
      if (!model_default_) return ModelFault(clean_result, kOpClassArith);
      ++scheduled_;
      if (threshold_ != 0 && rng_.next() < threshold_) return Corrupt(clean_result);
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
    if (per_op_) {
      if (!model_default_) return ModelComparisonFault(clean_result);
      ++scheduled_;
      if (threshold_ != 0 && rng_.next() < threshold_) {
        ++faults_;
        ++faults_compare_;
        return !clean_result;
      }
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

  // True when faulty::Real kernels under this injector take the bulk
  // faulty-BLAS path: the block engine, unless the model routes memory
  // loads — the load hooks (faulty::LoadElem) live in the templated
  // per-scalar loops, so routed loads force them on both engines.
  bool block_kernels() const { return block_kernels_; }

  // ---- block-engine API (Engine::kBlock, linalg/faulty_blas) -------------
  //
  // A block kernel executes the next `CleanRun()` ops as one tight loop over
  // raw doubles and then accounts for them with a single ConsumeClean —
  // observationally identical to that many Execute calls (the countdown is
  // the only per-op state, and stats derive from it), but with nothing of
  // the injector on the clean path.  Past the clean run, ScheduleFaults
  // hands the kernel the next window's faults as data.  In per-op oracle
  // mode the countdown is pinned at zero, so CleanRun() is 0 and block
  // kernels degrade to the per-scalar boundary path op by op, preserving
  // the oracle's RNG stream.

  // Ops guaranteed clean from now under the deterministic gap schedule.
  // While a sticky window (stuck-at / intermittent) is live the countdown
  // is pinned at zero, so this returns 0 and block kernels degrade to the
  // per-scalar boundary path op by op — which is exactly what keeps the
  // block and scalar engines bit-identical under the sticky models.
  std::uint64_t CleanRun() const { return countdown_; }

  // Accounts for `n` clean ops executed outside Execute().  Precondition:
  // n <= CleanRun().
  void ConsumeClean(std::uint64_t n) { countdown_ -= n; }

  // True when ScheduleFaults may be called: the default transient model
  // under skip-ahead at a rate in (0, 1).  Otherwise (a non-default model,
  // the per-op oracle, rates 0 and 1) kernels step faults through Execute.
  bool SchedulesFaults() const { return schedules_faults_; }

  // Walks the faults that land in the next `ops` ops, calling
  // on_fault(offset, bit) for each in op order (offset < ops, counted from
  // the next op), and accounts for all `ops` ops.  The caller applies each
  // fault by flipping `bit` in the result of op `offset`.  Observationally
  // identical to `ops` Execute calls: the RNG is consumed in FaultPath's
  // order (the next gap, then this fault's bit) and the stats, counters and
  // per-fault telemetry match.  Precondition: SchedulesFaults().
  template <class OnFault>
  void ScheduleFaults(std::uint64_t ops, const OnFault& on_fault) {
    // Local copies: stores the callback makes cannot alias them, so the RNG
    // state and the bookkeeping stay in registers across the whole walk.
    Lfsr rng = rng_;
    std::uint64_t countdown = countdown_;
    std::uint64_t scheduled = scheduled_;
    std::uint64_t faults = 0;
    std::uint64_t at = 0;  // offset of the next unscheduled op
    while (countdown < ops - at) {
      at += countdown;
      countdown = gaps_->Sample(rng);
      scheduled += countdown + 1;  // this op plus the next clean stretch
      telemetry::Observe(telemetry::Histogram::kInjectorCleanRun, countdown);
      telemetry::FaultInstant();
      ++faults;
      on_fault(at, bits_->sample(rng));
      ++at;
    }
    rng_ = rng;
    countdown_ = countdown - (ops - at);
    scheduled_ = scheduled;
    faults_ += faults;
    faults_arith_ += faults;
  }

  ContextStats stats() const {
    ContextStats s;
    // Single invariant for both strategies (mod 2^64): ops executed =
    // scheduled_ - countdown_.  Skip-ahead keeps countdown_ inside the last
    // sampled gap; per-op mode pins countdown_ at 0 and bumps scheduled_
    // once per op, so the same subtraction is the plain op count.  A live
    // sticky window moves the suspended remainder of the gap to
    // pending_gap_ (outside both terms) and restores it symmetrically on
    // expiry, so the invariant holds through every window transition.
    s.faulty_flops = scheduled_ - countdown_;
    s.faults_injected = faults_;
    s.faults_arith = faults_arith_;
    s.faults_compare = faults_compare_;
    s.faults_memory = faults_memory_;
    s.windows_opened = windows_opened_;
    return s;
  }

  Strategy strategy() const { return per_op_ ? Strategy::kPerOp : Strategy::kSkipAhead; }

  // ---- window hand-off across scopes (core::TrialFaultScope) -------------
  //
  // Historically a live stuck/intermittent window died with its injector
  // scope: a bit reported "stuck" healed the moment one kernel call returned
  // and the next began.  ExportWindow snapshots the live window at scope
  // exit; AdoptWindow re-arms it in the next scope's injector (suspending
  // that injector's gap schedule exactly as OpenWindow would) so the window
  // runs out its remaining ops across scope boundaries.  Adoption is not a
  // new window: stats().windows_opened counts only windows the temporal
  // model opened.  A no-op unless the carried window is live and this
  // injector runs the same non-default temporal model.
  CarriedWindow ExportWindow() const;
  void AdoptWindow(const CarriedWindow& window);

 private:
  static constexpr std::uint64_t kNever = ~0ull;

  // Cold paths (out of line, src/faulty/fault_injector.cpp): corrupt the
  // result and, in skip-ahead mode, re-arm the countdown.
  double FaultPath(double clean_result);
  bool FaultPathComparison(bool clean_result);
  // Clean ops before the next fault, K ~ Geometric(rate), from the shared
  // per-rate sampler (see gap_sampler.h).
  std::uint64_t SampleGap() { return gaps_->Sample(rng_); }
  double Corrupt(double value);
  static double FlipBit(double value, int bit);

  // Non-default temporal-model machinery (cold, out of line).  ModelFault /
  // ModelComparisonFault own the whole op under a non-default model:
  // schedule bookkeeping, firing the scheduled fault, and applying any live
  // window effect (stuck-bit forcing, intermittent in-window corruption).
  double ModelFault(double clean_result, unsigned op_class);
  bool ModelComparisonFault(bool clean_result);
  double FireScheduledFault(double value, unsigned op_class);
  void ArmStuckWindow();
  void OpenWindow(std::uint64_t length);
  void CloseWindow();
  double CorruptClass(double value, unsigned op_class);
  void CountClassFault(unsigned op_class);

  const BitDistribution* bits_;
  const GeometricGapSampler* gaps_ = nullptr;  // null at rates 0 and 1
  Lfsr rng_;
  std::uint64_t countdown_ = 0;   // clean ops left before the next fault
  std::uint64_t scheduled_ = 0;   // ops covered: sampled gaps (skip-ahead)
                                  // or one per op (per-op oracle)
  std::uint64_t faults_ = 0;
  std::uint64_t threshold_ = 0;   // fault_rate scaled to the uint64 range
  bool per_op_ = false;
  bool block_kernels_ = true;     // see block_kernels()
  bool schedules_faults_ = false; // see SchedulesFaults()

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

// True when faulty::Real kernels on this thread take the bulk path: always
// on a clean FPU, else as the active injector's engine and model say.
inline bool BlockKernelsActive() {
  const FaultInjector* inj = detail::tls_injector;
  return inj == nullptr || inj->block_kernels();
}

// Routes one memory load through the thread's injector.  Callers must have
// checked LoadsRouted(); the null test here is only a safety net for
// kernels instantiated outside a scope.
inline double ExecuteLoad(double clean_value) {
  FaultInjector* inj = detail::tls_injector;
  return inj ? inj->ExecuteLoad(clean_value) : clean_value;
}

}  // namespace robustify::faulty
