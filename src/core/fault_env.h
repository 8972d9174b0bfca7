// FaultEnvironment + WithFaultyFpu: scoped activation of the faulty FPU.
//
// A FaultEnvironment describes one operating point of the stochastic
// processor (per-op fault rate, bit-position model, RNG seed).
// WithFaultyFpu(env, fn, &stats) installs a FaultInjector for the current
// thread, runs fn — every faulty::Real op inside routes through the
// injector — and restores the previous (normally clean) FPU state on exit,
// exception-safely.
#pragma once

#include <cstdint>
#include <utility>

#include "core/guard.h"
#include "faulty/bit_distribution.h"
#include "faulty/fault_injector.h"
#include "faulty/real.h"
#include "telemetry/telemetry.h"

namespace robustify::core {

struct FaultEnvironment {
  double fault_rate = 0.0;  // probability a given FP op is corrupted
  std::uint64_t seed = 1;   // drives the injector LFSR (and trial inputs)
  faulty::BitModel bit_model = faulty::BitModel::kBimodal;
  // Test oracles only: the per-op Bernoulli injector (statistically, not
  // bitwise, equivalent — tests/test_statistical.cpp) and the per-scalar
  // kernel engine (bit-identical — tests/test_block_engine.cpp).  Campaigns
  // always run the defaults.
  faulty::FaultInjector::Strategy strategy = faulty::FaultInjector::Strategy::kSkipAhead;
  faulty::Engine engine = faulty::Engine::kBlock;
  // What a scheduled fault does (temporal model + op-class mask).  The
  // default transient model reproduces the historical injector bit-for-bit.
  faulty::FaultModel model;
  // Per-trial budget caps and divergence bailout (inactive by default —
  // behaviorally invisible).  Armed by the trial executor
  // (harness::RunSingleTrial), not by WithFaultyFpu, so one trial's guard
  // spans every scope the trial opens.
  TrialGuard guard;
};

namespace detail {

// Per-thread trial session for the sticky-window hand-off.  While active, a
// live stuck-at / intermittent window outlives the WithFaultyFpu scope that
// opened it and resumes in the trial's next scope — a stuck line in silicon
// doesn't heal between kernel calls.
struct TrialFaultSession {
  bool active = false;
  faulty::CarriedWindow window;
};

inline thread_local TrialFaultSession tls_trial_session;

// Feed the injector telemetry counters once per scope, from the same
// ContextStats the injector already maintains for the CSVs — telemetry adds
// nothing to the per-op path and cannot diverge from the published numbers.
inline void CountScopeTelemetry(const faulty::ContextStats& stats) {
  telemetry::Count(telemetry::Counter::kInjectorScopes);
  telemetry::Count(telemetry::Counter::kInjectorFaults, stats.faults_injected);
  telemetry::Count(telemetry::Counter::kInjectorFlops, stats.faulty_flops);
  telemetry::Count(telemetry::Counter::kInjectorFaultsArith, stats.faults_arith);
  telemetry::Count(telemetry::Counter::kInjectorFaultsCompare, stats.faults_compare);
  telemetry::Count(telemetry::Counter::kInjectorFaultsMemory, stats.faults_memory);
  telemetry::Count(telemetry::Counter::kInjectorWindows, stats.windows_opened);
}

// RAII: swap the thread's injector in, restore the previous one on exit.
class FaultScope {
 public:
  explicit FaultScope(faulty::FaultInjector* injector)
      : previous_(faulty::detail::ExchangeThreadInjector(injector)) {}
  ~FaultScope() { faulty::detail::ExchangeThreadInjector(previous_); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  faulty::FaultInjector* previous_;
};

}  // namespace detail

// RAII marker for "one trial runs on this thread": while alive, consecutive
// WithFaultyFpu scopes hand live sticky windows to each other (the injector
// AdoptWindow/ExportWindow pair).  Installed by harness::RunSingleTrial so
// every trial gets the hand-off for free; nesting restores the outer
// session on exit.  Under the default transient model both hooks are no-ops
// and the historical op/fault streams are untouched.
class TrialFaultScope {
 public:
  TrialFaultScope() : previous_(detail::tls_trial_session) {
    detail::tls_trial_session = {};
    detail::tls_trial_session.active = true;
  }
  ~TrialFaultScope() { detail::tls_trial_session = previous_; }
  TrialFaultScope(const TrialFaultScope&) = delete;
  TrialFaultScope& operator=(const TrialFaultScope&) = delete;

 private:
  detail::TrialFaultSession previous_;
};

template <class Fn>
auto WithFaultyFpu(const FaultEnvironment& env, Fn&& fn,
                   faulty::ContextStats* stats = nullptr) -> decltype(fn()) {
  // The sampling tables are built once per process and shared by every
  // trial; the injector only keeps a pointer (building a BitDistribution
  // per trial was measurable across a sweep's thousands of trials).
  faulty::FaultInjector injector(env.fault_rate,
                                 faulty::SharedBitDistribution(env.bit_model),
                                 env.seed, env.model, env.strategy, env.engine);
  detail::TrialFaultSession& session = detail::tls_trial_session;
  if (session.active) injector.AdoptWindow(session.window);
  if constexpr (std::is_void_v<decltype(fn())>) {
    {
      detail::FaultScope scope(&injector);
      std::forward<Fn>(fn)();
    }
    if (session.active) session.window = injector.ExportWindow();
    const faulty::ContextStats final_stats = injector.stats();
    if (stats) *stats = final_stats;
    detail::CountScopeTelemetry(final_stats);
  } else {
    struct Finalizer {
      faulty::FaultInjector& injector;
      faulty::ContextStats* stats;
      detail::TrialFaultSession& session;
      ~Finalizer() {
        if (session.active) session.window = injector.ExportWindow();
        const faulty::ContextStats final_stats = injector.stats();
        if (stats) *stats = final_stats;
        detail::CountScopeTelemetry(final_stats);
      }
    };
    detail::FaultScope scope(&injector);
    Finalizer finalize{injector, stats, session};
    return std::forward<Fn>(fn)();
  }
}

}  // namespace robustify::core
