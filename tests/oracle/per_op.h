// The per-op injector oracle: the default fault model simulated the naive
// way, one Bernoulli draw per op.
//
// Production simulates the fault process by geometric skip-ahead
// (faulty::FaultInjector): it samples the clean gap to the next fault once
// per fault.  PerOpInjector decides every op on its own — one LFSR word
// per op, compared against rate * 2^64 — and a faulting arithmetic op
// flips one bit drawn from the BitDistribution; a faulting comparison
// inverts its predicate.  The two simulate the same process, so they agree
// in law but not in stream (tests/test_statistical.cpp holds them to
// that).  The stream here is pinned by goldens of its own
// (tests/golden/model_default_*perop*), recorded from the library's former
// per-op injector strategy: the seed mixing, the draw order and the
// accounting below are exactly that strategy's.
//
// PerOpReal is the faulty scalar routed to the thread's PerOpInjector, and
// WithPerOpFpu installs one for a scope — the oracle twins of faulty::Real
// and core::WithFaultyFpu.  Non-default fault models have no per-op form.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/fault_env.h"
#include "faulty/bit_distribution.h"
#include "faulty/fault_injector.h"
#include "faulty/fault_model.h"
#include "faulty/lfsr.h"
#include "faulty_scalar.h"

namespace robustify::oracle {

class PerOpInjector {
 public:
  // `bits` is captured by pointer and must outlive the injector.
  PerOpInjector(double fault_rate, const faulty::BitDistribution& bits, std::uint64_t seed)
      : bits_(&bits), rng_(seed ^ 0xA5A5A5A55A5A5A5Aull) {
    if (fault_rate <= 0.0) {
      threshold_ = 0;
    } else if (fault_rate >= 1.0) {
      threshold_ = ~0ull;
    } else {
      threshold_ = static_cast<std::uint64_t>(fault_rate * 18446744073709551616.0);
      if (threshold_ == 0) threshold_ = 1;
    }
  }
  PerOpInjector(double fault_rate, faulty::BitDistribution&& bits,
                std::uint64_t seed) = delete;

  double Execute(double clean_result) {
    ++ops_;
    if (!Fires()) return clean_result;
    ++faults_arith_;
    std::uint64_t word;
    std::memcpy(&word, &clean_result, sizeof(word));
    word ^= 1ull << bits_->sample(rng_);
    double result;
    std::memcpy(&result, &word, sizeof(result));
    return result;
  }

  bool ExecuteComparison(bool clean_result) {
    ++ops_;
    if (!Fires()) return clean_result;
    ++faults_compare_;
    return !clean_result;
  }

  faulty::ContextStats stats() const {
    faulty::ContextStats s;
    s.faulty_flops = ops_;
    s.faults_injected = faults_arith_ + faults_compare_;
    s.faults_arith = faults_arith_;
    s.faults_compare = faults_compare_;
    return s;
  }

 private:
  // Rate 0 draws nothing; every other rate draws one word per op.
  bool Fires() { return threshold_ != 0 && rng_.next() < threshold_; }

  const faulty::BitDistribution* bits_;
  faulty::Lfsr rng_;
  std::uint64_t threshold_ = 0;  // fault_rate scaled to the uint64 range
  std::uint64_t ops_ = 0;
  std::uint64_t faults_arith_ = 0;
  std::uint64_t faults_compare_ = 0;
};

namespace detail {

// The active per-op injector for this thread; null means "clean FPU".
inline thread_local PerOpInjector* tls_per_op = nullptr;

}  // namespace detail

struct PerOpFpu {
  static double Execute(double v) {
    PerOpInjector* inj = detail::tls_per_op;
    return inj ? inj->Execute(v) : v;
  }
  static bool ExecuteComparison(bool v) {
    PerOpInjector* inj = detail::tls_per_op;
    return inj ? inj->ExecuteComparison(v) : v;
  }
};

using PerOpReal = FaultyScalar<PerOpFpu>;

// Runs fn with a fresh PerOpInjector for env's rate, bit model and seed
// serving this thread's PerOpReal ops; the scope's accounting lands in
// *stats.  Throws for a non-default fault model.
template <class Fn>
auto WithPerOpFpu(const core::FaultEnvironment& env, Fn&& fn,
                  faulty::ContextStats* stats = nullptr) -> decltype(fn()) {
  if (!faulty::IsDefaultModel(env.model)) {
    throw std::invalid_argument("the per-op oracle runs the default fault model only");
  }
  PerOpInjector injector(env.fault_rate, faulty::SharedBitDistribution(env.bit_model),
                         env.seed);
  struct Scope {
    PerOpInjector& injector;
    faulty::ContextStats* stats;
    PerOpInjector* previous;
    ~Scope() {
      detail::tls_per_op = previous;
      if (stats) *stats = injector.stats();
    }
  } scope{injector, stats, std::exchange(detail::tls_per_op, &injector)};
  return std::forward<Fn>(fn)();
}

// The scope T's ops run under: the per-op oracle for PerOpReal, the
// production injector (core::WithFaultyFpu) for faulty::Real and the
// per-scalar oracle.
template <class T, class Fn>
auto WithFpu(const core::FaultEnvironment& env, Fn&& fn,
             faulty::ContextStats* stats = nullptr) -> decltype(fn()) {
  if constexpr (std::is_same_v<T, PerOpReal>) {
    return WithPerOpFpu(env, std::forward<Fn>(fn), stats);
  } else {
    return core::WithFaultyFpu(env, std::forward<Fn>(fn), stats);
  }
}

}  // namespace robustify::oracle
