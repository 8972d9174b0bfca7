// FaultEnvironment + WithFaultyFpu: scoped activation of the faulty FPU.
//
// A FaultEnvironment describes one operating point of the stochastic
// processor (per-op fault rate, bit-position model, RNG seed, fault model).
// WithFaultyFpu(env, fn, &stats) installs a FaultInjector for the current
// thread, runs fn — every faulty::Real op inside routes through the
// injector — and restores the previous (normally clean) FPU state on exit,
// exception-safely.  The injector's state, a live sticky (stuck-at /
// intermittent) window included, lives and dies with its scope; each trial
// runs its kernels inside one scope.
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

// Book the injector's telemetry once per scope: the counters from the same
// ContextStats the injector already maintains for the CSVs, and the
// clean-run histogram the injector tallied during the scope.  Telemetry adds
// nothing to the per-op path, no thread-record access to the per-fault
// path, and cannot diverge from the published numbers.  A snapshot taken
// while a scope is open leaves that scope out.
inline void CountScopeTelemetry(const faulty::ContextStats& stats,
                                const faulty::FaultInjector& injector) {
  telemetry::Count(telemetry::Counter::kInjectorScopes);
  telemetry::Count(telemetry::Counter::kInjectorFaults, stats.faults_injected);
  telemetry::Count(telemetry::Counter::kInjectorFlops, stats.faulty_flops);
  telemetry::Count(telemetry::Counter::kInjectorFaultsArith, stats.faults_arith);
  telemetry::Count(telemetry::Counter::kInjectorFaultsCompare, stats.faults_compare);
  telemetry::Count(telemetry::Counter::kInjectorFaultsMemory, stats.faults_memory);
  telemetry::Count(telemetry::Counter::kInjectorWindows, stats.windows_opened);
  telemetry::AddHistogram(telemetry::Histogram::kInjectorCleanRun,
                          injector.CleanRunBuckets());
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

template <class Fn>
auto WithFaultyFpu(const FaultEnvironment& env, Fn&& fn,
                   faulty::ContextStats* stats = nullptr) -> decltype(fn()) {
  // The sampling tables are built once per process and shared by every
  // trial; the injector only keeps a pointer (building a BitDistribution
  // per trial was measurable across a sweep's thousands of trials).
  faulty::FaultInjector injector(env.fault_rate,
                                 faulty::SharedBitDistribution(env.bit_model),
                                 env.seed, env.model);
  // Books the scope's stats and telemetry on the way out, also when fn
  // throws.
  struct Finalizer {
    faulty::FaultInjector& injector;
    faulty::ContextStats* stats;
    ~Finalizer() {
      const faulty::ContextStats final_stats = injector.stats();
      if (stats) *stats = final_stats;
      detail::CountScopeTelemetry(final_stats, injector);
    }
  };
  detail::FaultScope scope(&injector);
  Finalizer finalize{injector, stats};
  return std::forward<Fn>(fn)();
}

}  // namespace robustify::core
