// Tests for the faulty subsystem: LFSR determinism, bit-distribution region
// masses, injector fault-rate accuracy, and scope save/restore.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/fault_env.h"
#include "faulty/bit_distribution.h"
#include "faulty/fault_injector.h"
#include "faulty/lfsr.h"
#include "faulty/real.h"
#include "oracle/per_op.h"

namespace {

using robustify::faulty::BitDistribution;
using robustify::faulty::BitModel;
using robustify::faulty::ContextStats;
using robustify::faulty::FaultInjector;
using robustify::faulty::kWordBits;
using robustify::faulty::Lfsr;
using robustify::faulty::Real;
using robustify::faulty::SharedBitDistribution;
using robustify::oracle::PerOpInjector;

TEST(Lfsr, DeterministicSequence) {
  Lfsr a(42);
  Lfsr b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Lfsr, DifferentSeedsDiverge) {
  Lfsr a(42);
  Lfsr b(43);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 32);
}

TEST(Lfsr, ZeroSeedIsRemapped) {
  Lfsr z(0);
  EXPECT_NE(z.state(), 0u);
  EXPECT_NE(z.next(), 0u);
}

TEST(Lfsr, UniformInUnitInterval) {
  Lfsr rng(7);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

double RegionMass(const BitDistribution& dist, int lo, int hi) {
  double m = 0.0;
  for (int b = lo; b <= hi; ++b) m += dist.probability(b);
  return m;
}

TEST(BitDistribution, BimodalRegionMasses) {
  const BitDistribution dist(BitModel::kBimodal);
  double total = 0.0;
  for (int b = 0; b < kWordBits; ++b) total += dist.probability(b);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Bimodal: heavy low and high-mantissa modes, a valley in the middle.
  EXPECT_GT(RegionMass(dist, 0, 11), 0.30);
  EXPECT_GT(RegionMass(dist, 40, 51), 0.30);
  EXPECT_LT(RegionMass(dist, 12, 39), 0.10);
  // Exponent+sign corruption possible but rare.
  const double high = RegionMass(dist, 52, 63);
  EXPECT_GT(high, 0.0);
  EXPECT_LT(high, 0.10);
}

TEST(BitDistribution, LsbOnlyAndMsbOnly) {
  const BitDistribution lsb(BitModel::kLsbOnly);
  EXPECT_NEAR(RegionMass(lsb, 0, 11), 1.0, 1e-12);
  const BitDistribution msb(BitModel::kMsbOnly);
  EXPECT_NEAR(RegionMass(msb, 52, 63), 1.0, 1e-12);
}

TEST(BitDistribution, SampleMatchesProbabilities) {
  const BitDistribution dist(BitModel::kBimodal);
  Lfsr rng(123);
  std::array<double, kWordBits> histogram{};
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const int b = dist.sample(rng);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, kWordBits);
    histogram[static_cast<std::size_t>(b)] += 1.0 / kSamples;
  }
  for (int b = 0; b < kWordBits; ++b) {
    EXPECT_NEAR(histogram[static_cast<std::size_t>(b)], dist.probability(b), 0.01);
  }
}

// The rate endpoints, for the production injector and the per-op oracle.
template <class Injector>
void ExpectRateZeroCountsButNeverCorrupts() {
  Injector injector(0.0, SharedBitDistribution(BitModel::kBimodal), 5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(injector.Execute(1.25), 1.25);
  }
  EXPECT_EQ(injector.stats().faulty_flops, 10000u);
  EXPECT_EQ(injector.stats().faults_injected, 0u);
}

template <class Injector>
void ExpectRateOneCorruptsEveryOp() {
  Injector injector(1.0, SharedBitDistribution(BitModel::kBimodal), 5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_NE(injector.Execute(1.25), 1.25);  // a bit flip never round-trips
  }
  EXPECT_EQ(injector.stats().faulty_flops, 10000u);
  EXPECT_EQ(injector.stats().faults_injected, 10000u);
}

TEST(FaultInjector, RateZeroCountsButNeverCorrupts) {
  ExpectRateZeroCountsButNeverCorrupts<FaultInjector>();
  ExpectRateZeroCountsButNeverCorrupts<PerOpInjector>();
}

TEST(FaultInjector, RateOneCorruptsEveryOp) {
  ExpectRateOneCorruptsEveryOp<FaultInjector>();
  ExpectRateOneCorruptsEveryOp<PerOpInjector>();
}

TEST(FaultInjector, FaultRateWithinStatisticalTolerance) {
  constexpr double kRate = 0.1;
  constexpr int kOps = 1000000;
  FaultInjector injector(kRate, SharedBitDistribution(BitModel::kBimodal), 99);
  for (int i = 0; i < kOps; ++i) injector.Execute(3.0);
  const double observed =
      static_cast<double>(injector.stats().faults_injected) / kOps;
  EXPECT_NEAR(observed, kRate, 0.003);  // ~10 sigma
}

// Geometric skip-ahead and the per-op Bernoulli oracle must agree in law:
// at every rate both fault counts sit inside the binomial confidence band
// around kOps * rate.
TEST(FaultInjector, SkipAheadStatisticallyEquivalentToPerOp) {
  constexpr int kOps = 2000000;
  for (const double rate : {1e-3, 1e-2, 0.05}) {
    FaultInjector skip(rate, SharedBitDistribution(BitModel::kBimodal), 1234);
    PerOpInjector perop(rate, SharedBitDistribution(BitModel::kBimodal), 4321);
    for (int i = 0; i < kOps; ++i) {
      skip.Execute(3.0);
      perop.Execute(3.0);
    }
    EXPECT_EQ(skip.stats().faulty_flops, static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(perop.stats().faulty_flops, static_cast<std::uint64_t>(kOps));
    const double expected = kOps * rate;
    const double tolerance = 6.0 * std::sqrt(kOps * rate * (1.0 - rate));
    EXPECT_NEAR(static_cast<double>(skip.stats().faults_injected), expected,
                tolerance)
        << "skip-ahead at rate " << rate;
    EXPECT_NEAR(static_cast<double>(perop.stats().faults_injected), expected,
                tolerance)
        << "per-op at rate " << rate;
  }
}

// Comparisons share the same countdown stream and the same statistics.
TEST(FaultInjector, ComparisonFaultRateWithinTolerance) {
  constexpr double kRate = 0.01;
  constexpr int kOps = 1000000;
  FaultInjector injector(kRate, SharedBitDistribution(BitModel::kBimodal), 7);
  int inverted = 0;
  for (int i = 0; i < kOps; ++i) {
    if (!injector.ExecuteComparison(true)) ++inverted;
  }
  EXPECT_EQ(injector.stats().faulty_flops, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(injector.stats().faults_injected, static_cast<std::uint64_t>(inverted));
  EXPECT_NEAR(static_cast<double>(inverted), kOps * kRate,
              6.0 * std::sqrt(kOps * kRate * (1.0 - kRate)));
}

template <class Injector>
void ExpectDeterministicForFixedSeed() {
  Injector a(0.01, SharedBitDistribution(BitModel::kBimodal), 99);
  Injector b(0.01, SharedBitDistribution(BitModel::kBimodal), 99);
  for (int i = 0; i < 100000; ++i) {
    const double clean = 1.0 + i * 0.5;
    ASSERT_EQ(a.Execute(clean), b.Execute(clean));
  }
  EXPECT_EQ(a.stats().faults_injected, b.stats().faults_injected);
  EXPECT_EQ(a.stats().faulty_flops, b.stats().faulty_flops);
}

// The production injector and the per-op oracle alike.
TEST(FaultInjector, DeterministicForFixedSeedAndStrategy) {
  ExpectDeterministicForFixedSeed<FaultInjector>();
  ExpectDeterministicForFixedSeed<PerOpInjector>();
}

TEST(FaultInjector, CorruptionFlipsExactlyOneBit) {
  FaultInjector injector(1.0, SharedBitDistribution(BitModel::kBimodal), 17);
  for (int i = 0; i < 1000; ++i) {
    const double clean = 1.0 + i * 0.125;
    const double corrupted = injector.Execute(clean);
    std::uint64_t a, b;
    std::memcpy(&a, &clean, sizeof(a));
    std::memcpy(&b, &corrupted, sizeof(b));
    EXPECT_EQ(__builtin_popcountll(a ^ b), 1);
  }
}

TEST(WithFaultyFpu, RestoresCleanStateOnExit) {
  using robustify::core::FaultEnvironment;
  using robustify::core::WithFaultyFpu;
  EXPECT_FALSE(robustify::faulty::InjectorActive());
  FaultEnvironment env;
  env.fault_rate = 0.5;
  env.seed = 11;
  ContextStats stats;
  const double result = WithFaultyFpu(
      env,
      [] {
        EXPECT_TRUE(robustify::faulty::InjectorActive());
        Real a(1.5), b(2.5);
        return (a + b).value();
      },
      &stats);
  (void)result;
  EXPECT_FALSE(robustify::faulty::InjectorActive());
  EXPECT_EQ(stats.faulty_flops, 1u);
  // Outside the scope Real arithmetic is clean and uncounted.
  Real a(1.5), b(2.5);
  EXPECT_EQ((a + b).value(), 4.0);
}

TEST(WithFaultyFpu, RestoresOnException) {
  using robustify::core::FaultEnvironment;
  using robustify::core::WithFaultyFpu;
  FaultEnvironment env;
  env.fault_rate = 0.5;
  try {
    WithFaultyFpu(env, []() -> int { throw std::runtime_error("boom"); });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(robustify::faulty::InjectorActive());
}

TEST(WithFaultyFpu, RateZeroArithmeticIsExact) {
  using robustify::core::FaultEnvironment;
  using robustify::core::WithFaultyFpu;
  FaultEnvironment env;  // rate 0
  ContextStats stats;
  const double result = WithFaultyFpu(
      env,
      [] {
        Real acc(0);
        for (int i = 1; i <= 100; ++i) acc += Real(i);
        return acc.value();
      },
      &stats);
  EXPECT_EQ(result, 5050.0);
  EXPECT_EQ(stats.faulty_flops, 100u);
  EXPECT_EQ(stats.faults_injected, 0u);
}

TEST(FaultyReal, ComparisonsCostAFlop) {
  using robustify::core::FaultEnvironment;
  using robustify::core::WithFaultyFpu;
  FaultEnvironment env;
  ContextStats stats;
  WithFaultyFpu(
      env,
      [] {
        Real a(1.0), b(2.0);
        return a < b;
      },
      &stats);
  EXPECT_EQ(stats.faulty_flops, 1u);
}

}  // namespace
