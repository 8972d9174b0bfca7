// Regression lock for the default fault model (transient single-bit,
// arithmetic + comparison op classes): the fault-model axis added for richer
// models must leave the historical behavior untouched.  These tests compare
// sweep and campaign CSV bytes, and a digest of the raw injector fault
// stream, against goldens captured from the pre-fault-model binaries —
// for faulty::Real and both equivalence oracles (tests/oracle/), across
// thread counts.  One more digest table pins the raw stream of every
// non-default model, and of the default model at rates 0 and 1.
//
// Regenerating (only when the default stream is *intentionally* changed):
//   ROBUSTIFY_REGEN_GOLDEN=1 ./robustify_tests --gtest_filter='ModelGolden.*'
// rewrites the files under tests/golden/ in the source tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/configs.h"
#include "apps/sort_app.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "core/fault_env.h"
#include "fixed_sweep.h"
#include "harness/csv.h"
#include "harness/trial.h"
#include "oracle/per_op.h"
#include "oracle/per_scalar.h"

#ifndef ROBUSTIFY_SOURCE_DIR
#error "robustify_tests must be compiled with ROBUSTIFY_SOURCE_DIR"
#endif

namespace {

using namespace robustify;
using oracle::PerOpReal;
using oracle::ScalarReal;

bool RegenRequested() { return std::getenv("ROBUSTIFY_REGEN_GOLDEN") != nullptr; }

std::string GoldenPath(const std::string& name) {
  return std::string(ROBUSTIFY_SOURCE_DIR) + "/tests/golden/" + name;
}

// Compares `bytes` against the committed golden, or rewrites the golden in
// regen mode.  The diff failure prints both forms whole — the artifacts are
// small CSVs/digest tables, and the byte that moved is the whole story.
void CheckGolden(const std::string& name, const std::string& bytes) {
  ASSERT_FALSE(bytes.empty()) << name;
  const std::string path = GoldenPath(name);
  if (RegenRequested()) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.good()) << "cannot write golden " << path;
    os << bytes;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "missing golden " << path
                         << " (regenerate with ROBUSTIFY_REGEN_GOLDEN=1)";
  std::stringstream buffer;
  buffer << is.rdbuf();
  EXPECT_EQ(buffer.str(), bytes) << "output drifted from the golden " << name;
}

// The real-kernel trial the goldens run: robust sort on a seed-derived
// 4-element input, under the default model, on scalar type T (and the
// injector T's ops route to).
template <class T>
harness::TrialFn SortTrial() {
  return [](const core::FaultEnvironment& env) {
    std::mt19937_64 rng(env.seed * 7919);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    std::vector<double> input(4);
    for (double& v : input) v = dist(rng);
    apps::LpSolveConfig config = apps::SortSgdAsSqs();
    config.sgd.iterations = 150;
    harness::TrialOutcome out;
    const apps::RobustSortResult r = oracle::WithFpu<T>(
        env, [&] { return apps::RobustSort<T>(input, config); }, &out.fpu_stats);
    out.success = r.valid && apps::IsSortedCopyOf(r.output, input);
    out.metric = static_cast<double>(out.fpu_stats.faults_injected);
    return out;
  };
}

template <class T>
std::string SweepCsvBytes(int threads) {
  campaign::CampaignSpec spec;
  spec.fault_rates = {0.0, 0.05, 0.25};
  spec.fixed_trials = 4;
  spec.base_seed = 33;
  const auto series = test::RunFixedSweep(
      spec, {{"SGD+AS,SQS", SortTrial<T>()}}, threads);
  const std::string path = ::testing::TempDir() + "/robustify_model_golden.csv";
  harness::WriteSweepCsv(path, series);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

// The golden names keep the (strategy, engine) pairs they were recorded
// under: "skip" is the production injector, on faulty::Real ("block") or
// the per-scalar oracle ("scalar"); "perop" is the per-op oracle, which
// has one kernel path, so both of its files hold the same bytes.
TEST(ModelGolden, SweepCsvMatchesPreModelBinaries) {
  CheckGolden("model_default_sweep_skip_block.csv", SweepCsvBytes<faulty::Real>(1));
  CheckGolden("model_default_sweep_skip_scalar.csv", SweepCsvBytes<ScalarReal>(1));
  const std::string perop = SweepCsvBytes<PerOpReal>(1);
  CheckGolden("model_default_sweep_perop_block.csv", perop);
  CheckGolden("model_default_sweep_perop_scalar.csv", perop);
}

TEST(ModelGolden, SweepCsvThreadCountInvariantAgainstGolden) {
  CheckGolden("model_default_sweep_skip_block.csv", SweepCsvBytes<faulty::Real>(2));
  CheckGolden("model_default_sweep_skip_block.csv", SweepCsvBytes<faulty::Real>(8));
}

std::string CampaignCsvBytes(bool adaptive, int threads) {
  campaign::CampaignSpec spec;
  spec.name = "golden_model";
  spec.app = "golden_model";
  spec.fault_rates = {0.0, 0.05, 0.25};
  spec.fixed_trials = 4;
  spec.max_trials = 8;
  spec.min_trials = 4;
  spec.ci_half_width = 0.2;
  spec.base_seed = 33;

  campaign::Scenario scenario;
  scenario.app = spec.app;
  scenario.series.push_back({"SGD+AS,SQS", SortTrial<faulty::Real>()});

  campaign::RunnerOptions options;
  options.threads = threads;
  options.adaptive = adaptive;
  const campaign::CampaignResult result =
      campaign::RunCampaign(spec, scenario, options);

  const std::string path = ::testing::TempDir() + "/robustify_model_campaign.csv";
  harness::WriteSweepCsv(path, result.series);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

TEST(ModelGolden, CampaignCsvMatchesPreModelBinaries) {
  CheckGolden("model_default_campaign_fixed.csv",
              CampaignCsvBytes(/*adaptive=*/false, /*threads=*/1));
  CheckGolden("model_default_campaign_adaptive.csv",
              CampaignCsvBytes(/*adaptive=*/true, /*threads=*/1));
}

TEST(ModelGolden, CampaignCsvThreadCountInvariantAgainstGolden) {
  CheckGolden("model_default_campaign_adaptive.csv",
              CampaignCsvBytes(/*adaptive=*/true, /*threads=*/8));
}

// ---- raw fault-stream digest ------------------------------------------------
//
// The CSVs prove end-to-end stability; this pins the injector's raw output
// stream — every corrupted word and inverted predicate, in order — so a
// drift that happens to cancel out in one app's CSV still trips the lock.

void MixInto(std::uint64_t* hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (8 * i)) & 0xff;
    *hash *= 1099511628211ull;  // FNV prime
  }
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;  // FNV-1a offset basis

// Mixes a fixed 20000-op stream through `injector` into *hash.  Injector:
// faulty::FaultInjector or the per-op oracle.  When the injector routes
// memory loads, every seventh op from offset 5 is a load instead of an
// arithmetic result.
template <class Injector>
void MixOpStream(Injector& injector, std::uint64_t* hash) {
  for (int i = 0; i < 20000; ++i) {
    if (i % 7 == 3) {
      // Mixed op stream: comparisons consume the schedule differently from
      // arithmetic (no bit-position draw), so interleave both kinds.
      MixInto(hash, injector.ExecuteComparison((i & 1) != 0) ? 1 : 0);
      continue;
    }
    const double clean = 1.0 + 0.5 * static_cast<double>(i);
    double result = 0.0;
    if constexpr (std::is_same_v<Injector, faulty::FaultInjector>) {
      result = injector.routes_loads() && i % 7 == 5 ? injector.ExecuteLoad(clean)
                                                     : injector.Execute(clean);
    } else {
      result = injector.Execute(clean);
    }
    std::uint64_t word;
    std::memcpy(&word, &result, sizeof(word));
    MixInto(hash, word);
  }
}

template <class Injector>
std::uint64_t StreamDigest(double rate) {
  Injector injector(rate, faulty::SharedBitDistribution(faulty::BitModel::kBimodal),
                    /*seed=*/987);
  std::uint64_t hash = kFnvBasis;
  MixOpStream(injector, &hash);
  const faulty::ContextStats stats = injector.stats();
  MixInto(&hash, stats.faulty_flops);
  MixInto(&hash, stats.faults_injected);
  return hash;
}

TEST(ModelGolden, FaultStreamDigestMatchesPreModelBinaries) {
  const double rates[] = {1e-3, 0.05, 0.25};
  // The "/split" suffix names the historical one-word-per-draw layout, the
  // only one there is; the labels stay byte-identical to the pre-model file.
  // "skip" is the production injector, "perop" the per-op oracle.
  std::ostringstream os;
  for (const double rate : rates) {
    const std::uint64_t digests[] = {StreamDigest<faulty::FaultInjector>(rate),
                                     StreamDigest<oracle::PerOpInjector>(rate)};
    const char* names[] = {"skip/split", "perop/split"};
    for (int i = 0; i < 2; ++i) {
      char line[96];
      std::snprintf(line, sizeof(line), "rate=%g %s digest=%016llx\n", rate, names[i],
                    static_cast<unsigned long long>(digests[i]));
      os << line;
    }
  }
  CheckGolden("model_default_stream.txt", os.str());
}

// The stream edges the default-model digest above leaves out: rates 0 and 1
// under the default model, and every non-default temporal model (with and
// without routed memory loads) at a low, a high and the saturated rate.
// Each digest covers the op stream and all six ContextStats fields.
TEST(ModelGolden, EdgeRateAndModelStreamDigests) {
  struct Case {
    faulty::FaultModel model;
    std::vector<double> rates;
  };
  std::vector<Case> cases = {{faulty::FaultModel{}, {0.0, 1.0}}};
  for (const faulty::Temporal temporal :
       {faulty::Temporal::kStuckAt, faulty::Temporal::kBurst,
        faulty::Temporal::kIntermittent}) {
    for (const unsigned classes : {faulty::kOpClassDefault, faulty::kOpClassAll}) {
      faulty::FaultModel model;
      model.temporal = temporal;
      model.op_classes = classes;
      cases.push_back({model, {0.05, 0.25, 1.0}});
    }
  }
  std::ostringstream os;
  for (const Case& c : cases) {
    for (const double rate : c.rates) {
      faulty::FaultInjector injector(
          rate, faulty::SharedBitDistribution(faulty::BitModel::kBimodal),
          /*seed=*/987, c.model);
      std::uint64_t hash = kFnvBasis;
      MixOpStream(injector, &hash);
      const faulty::ContextStats stats = injector.stats();
      for (const std::uint64_t field :
           {stats.faulty_flops, stats.faults_injected, stats.faults_arith,
            stats.faults_compare, stats.faults_memory, stats.windows_opened}) {
        MixInto(&hash, field);
      }
      char line[128];
      std::snprintf(line, sizeof(line), "rate=%g model=%s classes=%s digest=%016llx\n",
                    rate, faulty::TemporalName(c.model.temporal),
                    faulty::OpClassesName(c.model.op_classes).c_str(),
                    static_cast<unsigned long long>(hash));
      os << line;
    }
  }
  CheckGolden("model_stream_edges.txt", os.str());
}

}  // namespace
