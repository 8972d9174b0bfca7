// Roofline perf model: kernel-family table, placement arithmetic, machine
// profile round-trip, and the quantile interpolation the stats exports use.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "harness/perf_report.h"
#include "perfmodel/calibrate.h"
#include "perfmodel/roofline.h"
#include "telemetry/telemetry.h"

namespace {

using namespace robustify;

// Every faulty-BLAS family bench_roofline measures must be in the table
// with well-formed traits; names are the perf-section names, so they are
// part of the BENCH_*.json contract.
TEST(Perfmodel, KernelFamilyTableIsCompleteAndWellFormed) {
  const std::set<std::string> expected = {
      "dot",  "axpy",   "xpby",        "scal",     "sub", "sub_scaled2",
      "nrm2", "matvec", "mattvec",     "residual", "rot", "jacobi_dots"};
  std::set<std::string> seen;
  for (const auto& traits : perfmodel::KernelFamilyTable()) {
    EXPECT_GT(traits.flops_per_element, 0.0) << traits.family;
    EXPECT_GT(traits.bytes_per_element, 0.0) << traits.family;
    EXPECT_GT(traits.arithmetic_intensity(), 0.0) << traits.family;
    EXPECT_TRUE(seen.insert(traits.family).second)
        << "duplicate family " << traits.family;
  }
  EXPECT_EQ(seen, expected);

  const perfmodel::KernelTraits* dot = perfmodel::FindKernelTraits("dot");
  ASSERT_NE(dot, nullptr);
  EXPECT_DOUBLE_EQ(dot->flops_per_element, 2.0);
  EXPECT_DOUBLE_EQ(dot->bytes_per_element, 16.0);
  EXPECT_EQ(perfmodel::FindKernelTraits("not-a-kernel"), nullptr);
}

perfmodel::MachineProfile SyntheticProfile() {
  perfmodel::MachineProfile p;
  p.valid = true;
  p.scalar_peak_gops = 3.0;
  p.vector_peak_gops = 10.0;
  p.triad_bandwidth_gbps = 30.0;
  p.sustained_bandwidth_gbps = 40.0;
  p.calibration_seconds = 1.25;
  p.created_utc = "2026-08-08T00:00:00Z";
  return p;
}

TEST(Perfmodel, PlaceKernelMemoryBound) {
  // dot: AI = 2/16 = 0.125; memory roof 0.125 * 40 = 5 < vector peak 10.
  const auto* dot = perfmodel::FindKernelTraits("dot");
  ASSERT_NE(dot, nullptr);
  const perfmodel::RooflinePlacement placement =
      perfmodel::PlaceKernel(*dot, 2.5, SyntheticProfile());
  ASSERT_TRUE(placement.valid);
  EXPECT_DOUBLE_EQ(placement.arithmetic_intensity, 0.125);
  EXPECT_DOUBLE_EQ(placement.ceiling_gops, 5.0);
  EXPECT_TRUE(placement.memory_bound);
  EXPECT_DOUBLE_EQ(placement.efficiency, 0.5);
}

TEST(Perfmodel, PlaceKernelComputeBound) {
  // jacobi_dots: AI = 6/16 = 0.375; memory roof 15 > vector peak 10.
  const auto* jd = perfmodel::FindKernelTraits("jacobi_dots");
  ASSERT_NE(jd, nullptr);
  const perfmodel::RooflinePlacement placement =
      perfmodel::PlaceKernel(*jd, 5.0, SyntheticProfile());
  ASSERT_TRUE(placement.valid);
  EXPECT_DOUBLE_EQ(placement.arithmetic_intensity, 0.375);
  EXPECT_DOUBLE_EQ(placement.ceiling_gops, 10.0);
  EXPECT_FALSE(placement.memory_bound);
  EXPECT_DOUBLE_EQ(placement.efficiency, 0.5);

  // The per-scalar compute roof is lower: min(3, 15) = 3.
  const perfmodel::RooflinePlacement scalar = perfmodel::PlaceKernel(
      *jd, 1.5, SyntheticProfile(), /*use_vector_peak=*/false);
  ASSERT_TRUE(scalar.valid);
  EXPECT_DOUBLE_EQ(scalar.ceiling_gops, 3.0);
  EXPECT_FALSE(scalar.memory_bound);
  EXPECT_DOUBLE_EQ(scalar.efficiency, 0.5);
}

TEST(Perfmodel, PlaceKernelRejectsBadInputs) {
  const auto* dot = perfmodel::FindKernelTraits("dot");
  ASSERT_NE(dot, nullptr);
  perfmodel::MachineProfile invalid;  // valid == false
  EXPECT_FALSE(perfmodel::PlaceKernel(*dot, 2.5, invalid).valid);

  perfmodel::KernelTraits degenerate;  // zero flops/bytes
  EXPECT_FALSE(
      perfmodel::PlaceKernel(degenerate, 2.5, SyntheticProfile()).valid);

  const double nan = std::nan("");
  EXPECT_FALSE(perfmodel::PlaceKernel(*dot, nan, SyntheticProfile()).valid);
  EXPECT_FALSE(perfmodel::PlaceKernel(*dot, -1.0, SyntheticProfile()).valid);
}

TEST(Perfmodel, MachineProfileJsonRoundTrip) {
  const perfmodel::MachineProfile written = SyntheticProfile();
  const std::string path =
      ::testing::TempDir() + "/robustify_machine_profile.json";
  perfmodel::WriteMachineProfile(path, written);
  const perfmodel::MachineProfile loaded = perfmodel::LoadMachineProfile(path);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.valid);
  // The writer prints 9 significant digits; compare to that precision.
  EXPECT_NEAR(loaded.scalar_peak_gops, written.scalar_peak_gops, 1e-7);
  EXPECT_NEAR(loaded.vector_peak_gops, written.vector_peak_gops, 1e-7);
  EXPECT_NEAR(loaded.triad_bandwidth_gbps, written.triad_bandwidth_gbps, 1e-7);
  EXPECT_NEAR(loaded.sustained_bandwidth_gbps,
              written.sustained_bandwidth_gbps, 1e-7);
}

TEST(Perfmodel, LoadMachineProfileNeverThrows) {
  EXPECT_FALSE(
      perfmodel::LoadMachineProfile("/nonexistent/machine_profile.json").valid);

  const std::string path = ::testing::TempDir() + "/robustify_garbage.json";
  {
    std::ofstream out(path);
    out << "this is not json {{{";
  }
  EXPECT_FALSE(perfmodel::LoadMachineProfile(path).valid);
  std::remove(path.c_str());
}

// A quick calibration is noisy but must still produce a usable profile:
// finite positive rates and a provenance timestamp.
TEST(Perfmodel, QuickCalibrationProducesValidProfile) {
  const perfmodel::MachineProfile profile =
      perfmodel::Calibrate(perfmodel::CalibrationOptions::Quick());
  ASSERT_TRUE(profile.valid);
  EXPECT_TRUE(std::isfinite(profile.scalar_peak_gops));
  EXPECT_TRUE(std::isfinite(profile.vector_peak_gops));
  EXPECT_TRUE(std::isfinite(profile.triad_bandwidth_gbps));
  EXPECT_TRUE(std::isfinite(profile.sustained_bandwidth_gbps));
  EXPECT_GT(profile.scalar_peak_gops, 0.0);
  EXPECT_GT(profile.vector_peak_gops, 0.0);
  EXPECT_GT(profile.triad_bandwidth_gbps, 0.0);
  // Sustained is the best stream probe, so it can only improve on triad.
  EXPECT_GE(profile.sustained_bandwidth_gbps, profile.triad_bandwidth_gbps);
  EXPECT_GT(profile.calibration_seconds, 0.0);
  EXPECT_FALSE(profile.created_utc.empty());
}

// The exact interpolation contract of telemetry.cpp's HistogramQuantile:
// ranks interpolate linearly inside a bucket's [2^(b-1), 2^b) range.
TEST(Perfmodel, HistogramQuantileInterpolation) {
  std::uint64_t buckets[telemetry::kHistogramBuckets] = {};
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(buckets, 0.5), 0.0);  // empty

  buckets[0] = 5;  // all-zero values: any quantile reads 0
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(buckets, 0.99), 0.0);
  buckets[0] = 0;

  // Single bucket 3 = [4, 8), 4 samples: p50 lands halfway through it.
  buckets[3] = 4;
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(buckets, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(buckets, 0.5), 6.0);
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(buckets, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(buckets, 2.0), 8.0);  // clamp
  buckets[3] = 0;

  // Two buckets: 2 samples in [1, 2), 2 in [8, 16).
  buckets[1] = 2;
  buckets[4] = 2;
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(buckets, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(buckets, 0.75), 12.0);
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(buckets, 1.0), 16.0);
}

// WritePerfJson carries the roofline fields bench_roofline fills; a section
// without a ceiling omits them (they are opt-in, not zero-filled noise).
// Names are escaped whole: a campaign name may carry a tab or any other
// control character, which JSON forbids raw inside a string.
TEST(Perfmodel, PerfJsonCarriesRooflineFields) {
  harness::PerfReport report;
  report.bench = "roofline\ttest\x01\"q\"";
  harness::PerfSection placed;
  placed.name = "dot";
  placed.wall_seconds = 0.1;
  placed.kernel_gops = 2.5;
  placed.arithmetic_intensity = 0.125;
  placed.roofline_ceiling_gops = 5.0;
  placed.roofline_efficiency = 0.5;
  harness::PerfSection unplaced;
  unplaced.name = "setup";
  unplaced.wall_seconds = 0.01;
  report.sections = {placed, unplaced};

  const std::string path = ::testing::TempDir() + "/robustify_roofline.json";
  harness::WritePerfJson(path, report);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  const std::string json = buffer.str();

  EXPECT_NE(json.find("\"kernel_gops\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"arithmetic_intensity\": 0.125"), std::string::npos);
  EXPECT_NE(json.find("\"roofline_ceiling_gops\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"roofline_efficiency\": 0.5"), std::string::npos);
  // Exactly one section carries the fields.
  EXPECT_EQ(json.find("kernel_gops"), json.rfind("kernel_gops"));
  EXPECT_NE(json.find("\"bench\": \"roofline\\ttest\\u0001\\\"q\\\"\""),
            std::string::npos)
      << json;
  for (const char c : json) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw control character " << static_cast<int>(c) << " in " << json;
  }
}

}  // namespace
