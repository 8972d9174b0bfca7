// Statistical equivalence of the production injector and the per-op oracle.
//
// The gap-table skip-ahead sampler simulates the fault process for the
// whole rate range; the per-op Bernoulli injector (tests/oracle/per_op.h)
// is the reference these tests compare it against.  Two observables fully
// characterize an injector: the fault-to-fault gap distribution (must be
// Geometric(rate)) and the flipped-bit-position distribution (must match
// the BitDistribution).  At every rate both injectors are held to the theoretical law by chi-square
// goodness-of-fit (equal-expected-count pooled bins), to each other by a
// two-sample chi-square, and the gap samples additionally by a two-sample
// Kolmogorov-Smirnov distance.  All draws are seeded: the observed
// statistics are deterministic, so a pass is reproducible bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "faulty/bit_distribution.h"
#include "faulty/fault_injector.h"
#include "faulty/gap_sampler.h"
#include "faulty/lfsr.h"
#include "oracle/per_op.h"

namespace {

using robustify::faulty::BitDistribution;
using robustify::faulty::BitModel;
using robustify::faulty::FaultInjector;
using robustify::faulty::GeometricGapSampler;
using robustify::faulty::kWordBits;
using robustify::faulty::Lfsr;
using robustify::faulty::SharedBitDistribution;
using robustify::oracle::PerOpInjector;

constexpr double kRates[] = {1e-5, 1e-3, 0.05, 0.25};
constexpr int kTargetFaults = 1200;

// Chi-square quantile at p = 0.999 (i.e. a 1-in-1000 false-positive bound
// if the draws were random; they are seeded, so a pass is permanent) via
// the Wilson-Hilferty approximation — good to ~1% for dof >= 3, and we
// only ever pool into >= 4 bins.
double ChiSquareCrit999(int dof) {
  const double z = 3.0902;  // Phi^{-1}(0.999)
  const double d = static_cast<double>(dof);
  const double t = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * t * t * t;
}

struct FaultSample {
  std::vector<std::uint64_t> gaps;       // clean ops between injected faults
  std::array<int, kWordBits> bit_counts{};  // flipped-bit histogram
};

// Streams clean ops through an injector and records every corruption: the
// gap since the previous fault and which bit flipped (recovered by XOR
// against the clean value; the injector flips exactly one bit).
// Injector: FaultInjector (skip-ahead) or PerOpInjector (the oracle).
template <class Injector>
FaultSample CollectFaults(double rate, std::uint64_t seed, int target_faults) {
  Injector injector(rate, SharedBitDistribution(BitModel::kBimodal), seed);
  FaultSample sample;
  sample.gaps.reserve(static_cast<std::size_t>(target_faults));
  const double clean = 1.5;
  std::uint64_t clean_word;
  std::memcpy(&clean_word, &clean, sizeof(clean_word));
  std::uint64_t since_last = 0;
  while (static_cast<int>(sample.gaps.size()) < target_faults) {
    const double out = injector.Execute(clean);
    if (out == clean) {
      ++since_last;
      continue;
    }
    std::uint64_t out_word;
    std::memcpy(&out_word, &out, sizeof(out_word));
    const std::uint64_t diff = clean_word ^ out_word;
    EXPECT_EQ(__builtin_popcountll(diff), 1) << "multi-bit corruption";
    sample.bit_counts[static_cast<std::size_t>(__builtin_ctzll(diff))] += 1;
    sample.gaps.push_back(since_last);
    since_last = 0;
  }
  EXPECT_EQ(injector.stats().faults_injected,
            static_cast<std::uint64_t>(target_faults));
  return sample;
}

// Equal-expected-count pooling of the geometric pmf: consecutive gap values
// are merged until each bin's expected count reaches kMinExpected; the tail
// (everything past the last edge) is its own bin.  Returns bin upper edges
// (inclusive); the tail bin is implicit.
std::vector<std::uint64_t> GeometricBinEdges(double rate, int n_samples) {
  constexpr double kMinExpected = 30.0;
  std::vector<std::uint64_t> edges;
  double bin_mass = 0.0;
  double tail_mass = 1.0;  // P(gap > current edge)
  double pmf = rate;       // P(gap = g), updated as g advances
  for (std::uint64_t g = 0;; ++g) {
    bin_mass += pmf;
    tail_mass -= pmf;
    pmf *= 1.0 - rate;
    if (bin_mass * n_samples >= kMinExpected) {
      // Close this bin, but only if what remains can still fill a tail bin.
      if (tail_mass * n_samples < kMinExpected) break;
      edges.push_back(g);
      bin_mass = 0.0;
    }
    if (g > 100000000ull) break;  // safety; unreachable for tested rates
  }
  return edges;
}

// Observed counts per pooled bin (edges inclusive; one extra tail bin).
std::vector<double> BinGaps(const std::vector<std::uint64_t>& gaps,
                            const std::vector<std::uint64_t>& edges) {
  std::vector<double> counts(edges.size() + 1, 0.0);
  for (const std::uint64_t g : gaps) {
    const auto it = std::lower_bound(edges.begin(), edges.end(), g);
    counts[static_cast<std::size_t>(it - edges.begin())] += 1.0;
  }
  return counts;
}

// Expected probability mass per pooled bin under Geometric(rate):
// P(gap <= e) = 1 - (1-rate)^{e+1}.
std::vector<double> BinProbabilities(double rate,
                                     const std::vector<std::uint64_t>& edges) {
  std::vector<double> probs;
  double prev_cdf = 0.0;
  for (const std::uint64_t e : edges) {
    const double cdf =
        1.0 - std::exp(std::log1p(-rate) * static_cast<double>(e + 1));
    probs.push_back(cdf - prev_cdf);
    prev_cdf = cdf;
  }
  probs.push_back(1.0 - prev_cdf);
  return probs;
}

double ChiSquareGoodnessOfFit(const std::vector<double>& observed,
                              const std::vector<double>& probs, int n) {
  double chi2 = 0.0;
  for (std::size_t b = 0; b < observed.size(); ++b) {
    const double expected = probs[b] * n;
    const double d = observed[b] - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

double ChiSquareTwoSample(const std::vector<double>& a, const std::vector<double>& b) {
  double na = 0.0, nb = 0.0;
  for (const double c : a) na += c;
  for (const double c : b) nb += c;
  const double ka = std::sqrt(nb / na);
  const double kb = std::sqrt(na / nb);
  double chi2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double total = a[i] + b[i];
    if (total == 0.0) continue;
    const double d = ka * a[i] - kb * b[i];
    chi2 += d * d / total;
  }
  return chi2;
}

// Two-sample Kolmogorov-Smirnov distance between sorted gap samples.
double KsDistance(std::vector<std::uint64_t> a, std::vector<std::uint64_t> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::uint64_t v = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= v) ++i;
    while (j < b.size() && b[j] <= v) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

// Pool the 64 bit positions (in index order) into bins with enough expected
// mass for a chi-square; returns parallel (observed per injector, probs).
void PoolBitBins(const std::array<int, kWordBits>& skip_counts,
                 const std::array<int, kWordBits>& perop_counts,
                 const BitDistribution& dist, int n,
                 std::vector<double>* skip_bins, std::vector<double>* perop_bins,
                 std::vector<double>* probs) {
  constexpr double kMinExpected = 20.0;
  double bin_p = 0.0, bin_skip = 0.0, bin_perop = 0.0;
  for (int b = 0; b < kWordBits; ++b) {
    bin_p += dist.probability(b);
    bin_skip += skip_counts[static_cast<std::size_t>(b)];
    bin_perop += perop_counts[static_cast<std::size_t>(b)];
    if (bin_p * n >= kMinExpected) {
      probs->push_back(bin_p);
      skip_bins->push_back(bin_skip);
      perop_bins->push_back(bin_perop);
      bin_p = bin_skip = bin_perop = 0.0;
    }
  }
  if (bin_p > 0.0) {
    // Merge the leftover mass into the last closed bin.
    probs->back() += bin_p;
    skip_bins->back() += bin_skip;
    perop_bins->back() += bin_perop;
  }
}

// --- gap distribution: both injectors vs. Geometric(rate), and vs. each
// other ---------------------------------------------------------------------

TEST(StatisticalEquivalence, GapDistributionMatchesGeometricLaw) {
  for (const double rate : kRates) {
    const FaultSample skip = CollectFaults<FaultInjector>(rate, 1001, kTargetFaults);
    const FaultSample perop = CollectFaults<PerOpInjector>(rate, 2002, kTargetFaults);

    const std::vector<std::uint64_t> edges = GeometricBinEdges(rate, kTargetFaults);
    ASSERT_GE(edges.size(), 3u) << "rate " << rate;  // enough resolution to mean anything
    const std::vector<double> probs = BinProbabilities(rate, edges);
    const std::vector<double> skip_bins = BinGaps(skip.gaps, edges);
    const std::vector<double> perop_bins = BinGaps(perop.gaps, edges);
    const int dof = static_cast<int>(probs.size()) - 1;
    const double crit = ChiSquareCrit999(dof);

    EXPECT_LT(ChiSquareGoodnessOfFit(skip_bins, probs, kTargetFaults), crit)
        << "skip-ahead gaps vs geometric law, rate " << rate;
    EXPECT_LT(ChiSquareGoodnessOfFit(perop_bins, probs, kTargetFaults), crit)
        << "per-op gaps vs geometric law, rate " << rate;
    EXPECT_LT(ChiSquareTwoSample(skip_bins, perop_bins), crit)
        << "skip-ahead vs per-op gap histograms, rate " << rate;
  }
}

TEST(StatisticalEquivalence, GapSamplesPassTwoSampleKs) {
  // KS critical distance at alpha = 0.001: c(alpha) * sqrt((n1+n2)/(n1*n2))
  // with c = 1.95.
  const double crit =
      1.95 * std::sqrt(2.0 / static_cast<double>(kTargetFaults));
  for (const double rate : kRates) {
    const FaultSample skip = CollectFaults<FaultInjector>(rate, 3003, kTargetFaults);
    const FaultSample perop = CollectFaults<PerOpInjector>(rate, 4004, kTargetFaults);
    EXPECT_LT(KsDistance(skip.gaps, perop.gaps), crit) << "rate " << rate;
  }
}

// --- bit-position distribution: both injectors vs. the configured
// BitDistribution, and vs. each other ---------------------------------------

TEST(StatisticalEquivalence, BitPositionsMatchConfiguredDistribution) {
  const BitDistribution& dist = SharedBitDistribution(BitModel::kBimodal);
  for (const double rate : kRates) {
    const FaultSample skip = CollectFaults<FaultInjector>(rate, 5005, kTargetFaults);
    const FaultSample perop = CollectFaults<PerOpInjector>(rate, 6006, kTargetFaults);

    std::vector<double> skip_bins, perop_bins, probs;
    PoolBitBins(skip.bit_counts, perop.bit_counts, dist, kTargetFaults,
                &skip_bins, &perop_bins, &probs);
    ASSERT_GE(probs.size(), 4u);
    const int dof = static_cast<int>(probs.size()) - 1;
    const double crit = ChiSquareCrit999(dof);

    EXPECT_LT(ChiSquareGoodnessOfFit(skip_bins, probs, kTargetFaults), crit)
        << "skip-ahead bit positions, rate " << rate;
    EXPECT_LT(ChiSquareGoodnessOfFit(perop_bins, probs, kTargetFaults), crit)
        << "per-op bit positions, rate " << rate;
    EXPECT_LT(ChiSquareTwoSample(skip_bins, perop_bins), crit)
        << "skip-ahead vs per-op bit positions, rate " << rate;
  }
}

// --- the gap sampler itself -------------------------------------------------

TEST(GeometricGapSampler, TableKicksInAtTheDocumentedRate) {
  const GeometricGapSampler low(GeometricGapSampler::kTableMinRate / 2.0);
  EXPECT_FALSE(low.uses_table());
  const GeometricGapSampler high(GeometricGapSampler::kTableMinRate);
  EXPECT_TRUE(high.uses_table());
}

TEST(GeometricGapSampler, SharedReturnsOneInstancePerRate) {
  const GeometricGapSampler& a = GeometricGapSampler::Shared(0.125);
  const GeometricGapSampler& b = GeometricGapSampler::Shared(0.125);
  EXPECT_EQ(&a, &b);
  const GeometricGapSampler& c = GeometricGapSampler::Shared(0.25);
  EXPECT_NE(&a, &c);
}

// --- fault-model laws (faulty/fault_model.h) ---------------------------------
//
// The temporal models draw from three per-fault laws: stuck-window duration
// and intermittent-window length (both Geometric on {1,2,...} with
// p = 1/mean) and burst width (Uniform{1..max}).  The samplers are held to
// the exact laws by chi-square, and burst widths also end to end, through
// the injector.

using robustify::faulty::FaultModel;
using robustify::faulty::SampleBurstWidth;
using robustify::faulty::SampleStuckDuration;
using robustify::faulty::SampleWindowLength;
using robustify::faulty::Temporal;

// Chi-square GoF of geometric-on-{1,2,...} draws with the given mean:
// shift to {0,1,...} and reuse the gap-law bins with rate = 1/mean.
void ExpectGeometricDurations(const std::vector<std::uint64_t>& durations,
                              double mean, const char* what) {
  ASSERT_FALSE(durations.empty());
  for (const std::uint64_t d : durations) ASSERT_GE(d, 1u) << what;
  std::vector<std::uint64_t> shifted;
  shifted.reserve(durations.size());
  for (const std::uint64_t d : durations) shifted.push_back(d - 1);
  const double rate = 1.0 / mean;
  const int n = static_cast<int>(shifted.size());
  const std::vector<std::uint64_t> edges = GeometricBinEdges(rate, n);
  ASSERT_GE(edges.size(), 3u) << what;
  const std::vector<double> probs = BinProbabilities(rate, edges);
  const std::vector<double> bins = BinGaps(shifted, edges);
  const int dof = static_cast<int>(probs.size()) - 1;
  EXPECT_LT(ChiSquareGoodnessOfFit(bins, probs, n), ChiSquareCrit999(dof))
      << what;
}

TEST(ModelLaws, StuckDurationMatchesGeometricLaw) {
  constexpr int kDraws = 4000;
  for (const double mean : {8.0, 64.0, 256.0}) {
    Lfsr rng(11011);
    std::vector<std::uint64_t> draws;
    draws.reserve(kDraws);
    for (int i = 0; i < kDraws; ++i) {
      draws.push_back(SampleStuckDuration(mean, rng));
    }
    ExpectGeometricDurations(draws, mean, "stuck duration");
  }
  // Degenerate means collapse to the constant 1, never 0.
  Lfsr rng(22022);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(SampleStuckDuration(0.5, rng), 1u);
}

TEST(ModelLaws, WindowLengthMatchesGeometricLaw) {
  constexpr int kDraws = 4000;
  for (const double mean : {16.0, 64.0}) {
    Lfsr rng(33033);
    std::vector<std::uint64_t> draws;
    draws.reserve(kDraws);
    for (int i = 0; i < kDraws; ++i) {
      draws.push_back(SampleWindowLength(mean, rng));
    }
    ExpectGeometricDurations(draws, mean, "window length");
  }
}

TEST(ModelLaws, BurstWidthMatchesUniformLaw) {
  constexpr int kDraws = 8000;
  for (const int width_max : {2, 4, 8}) {
    Lfsr rng(44044);
    std::vector<double> counts(static_cast<std::size_t>(width_max), 0.0);
    for (int i = 0; i < kDraws; ++i) {
      const int w = SampleBurstWidth(width_max, rng);
      ASSERT_GE(w, 1);
      ASSERT_LE(w, width_max);
      counts[static_cast<std::size_t>(w - 1)] += 1.0;
    }
    const std::vector<double> probs(static_cast<std::size_t>(width_max),
                                    1.0 / width_max);
    const int dof = width_max - 1;
    EXPECT_LT(ChiSquareGoodnessOfFit(counts, probs, kDraws),
              ChiSquareCrit999(std::max(dof, 3)))
        << "width_max " << width_max;
  }
  Lfsr rng(55055);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(SampleBurstWidth(1, rng), 1);
}

// Burst widths through the injector follow Uniform{1..max} once clamping at
// the word edge cannot bite: condition on bursts whose base bit leaves room
// (the contiguous flipped run starts at the lowest changed bit).
TEST(ModelLaws, BurstWidthsThroughInjectorMatchUniformLaw) {
  constexpr int kEvents = 2400;
  FaultModel model;
  model.temporal = Temporal::kBurst;
  FaultInjector injector(0.01, SharedBitDistribution(BitModel::kBimodal), 31313,
                         model);
  const double clean = 1.5;
  std::uint64_t clean_word;
  std::memcpy(&clean_word, &clean, sizeof(clean_word));
  std::vector<double> counts(4, 0.0);
  int kept = 0;
  for (int events = 0; events < kEvents;) {
    const double out = injector.Execute(clean);
    std::uint64_t out_word;
    std::memcpy(&out_word, &out, sizeof(out_word));
    const std::uint64_t diff = clean_word ^ out_word;
    if (diff == 0) continue;
    ++events;
    const int base = __builtin_ctzll(diff);
    const int width = __builtin_popcountll(diff);
    EXPECT_EQ(diff >> base, (1ull << width) - 1) << "burst must be contiguous";
    if (base <= 64 - 4) {  // clamp-free: the full Uniform{1..4} support fits
      ASSERT_GE(width, 1);
      ASSERT_LE(width, 4);
      counts[static_cast<std::size_t>(width - 1)] += 1.0;
      ++kept;
    }
  }
  ASSERT_GE(kept, 1000);
  const std::vector<double> probs(4, 0.25);
  EXPECT_LT(ChiSquareGoodnessOfFit(counts, probs, kept), ChiSquareCrit999(3));
}

// --- the gap sampler itself (continued) --------------------------------------

// Both sampler forms must produce the geometric law; exercise each just on
// its side of the table threshold, where a regression would otherwise hide.
TEST(GeometricGapSampler, BothFormsMatchGeometricLawNearThreshold) {
  constexpr int kDraws = 4000;
  for (const double rate : {GeometricGapSampler::kTableMinRate * 0.9,
                            GeometricGapSampler::kTableMinRate * 1.1}) {
    const GeometricGapSampler sampler(rate);
    Lfsr rng(777);
    std::vector<std::uint64_t> gaps;
    gaps.reserve(kDraws);
    for (int i = 0; i < kDraws; ++i) gaps.push_back(sampler.Sample(rng));

    const std::vector<std::uint64_t> edges = GeometricBinEdges(rate, kDraws);
    const std::vector<double> probs = BinProbabilities(rate, edges);
    const std::vector<double> bins = BinGaps(gaps, edges);
    const int dof = static_cast<int>(probs.size()) - 1;
    EXPECT_LT(ChiSquareGoodnessOfFit(bins, probs, kDraws), ChiSquareCrit999(dof))
        << "rate " << rate << " (table=" << sampler.uses_table() << ")";
  }
}

}  // namespace
