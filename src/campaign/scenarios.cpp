#include "campaign/scenarios.h"

#include <cmath>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>

#include "apps/apsp_app.h"
#include "apps/configs.h"
#include "apps/eigen_app.h"
#include "apps/iir_app.h"
#include "apps/least_squares.h"
#include "apps/matching_app.h"
#include "apps/maxflow_app.h"
#include "apps/sort_app.h"
#include "apps/svm_app.h"
#include "core/fault_env.h"
#include "core/phases.h"
#include "core/variants.h"
#include "faulty/fault_model.h"
#include "graph/generators.h"
#include "graph/maxflow.h"
#include "graph/shortest_paths.h"
#include "linalg/random.h"
#include "signal/metrics.h"
#include "signal/signals.h"

namespace robustify::campaign {

namespace {

// ---- fig6_1 / momentum_sort: sorting ---------------------------------------

std::vector<double> SortInput(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> v(5);
  for (double& x : v) x = dist(rng);
  return v;
}

harness::TrialFn SortBaseFn() {
  return [](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    const std::vector<double> input = SortInput(env.seed * 7919);
    const std::vector<double> sorted = core::WithFaultyFpu(
        env, [&] { return apps::BaselineSort<faulty::Real>(input); },
        &out.fpu_stats);
    out.success = apps::IsSortedCopyOf(sorted, input);
    return out;
  };
}

// Sorts `fixed_input` when given, else a fresh input drawn from the trial seed.
harness::TrialFn SortVariantFn(
    const apps::LpSolveConfig& config,
    std::shared_ptr<const std::vector<double>> fixed_input = nullptr) {
  return [config, fixed_input](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    const std::vector<double> input =
        fixed_input ? *fixed_input : SortInput(env.seed * 7919);
    const apps::RobustSortResult r = core::WithFaultyFpu(
        env, [&] { return apps::RobustSort<faulty::Real>(input, config); },
        &out.fpu_stats);
    out.success = r.valid && apps::IsSortedCopyOf(r.output, input);
    return out;
  };
}

Scenario MakeSortScenario() {
  Scenario s;
  s.app = "fig6_1";
  s.title = "Accuracy of Sort - 10000 Iterations";
  s.value = harness::TableValue::kSuccessRatePct;
  s.value_label = "success rate (%)";
  s.series = {
      {"Base", SortBaseFn()},
      {"SGD", SortVariantFn(apps::SortSgdLs())},
      {"SGD+AS,LS", SortVariantFn(apps::SortSgdAsLs())},
      {"SGD+AS,SQS", SortVariantFn(apps::SortSgdAsSqs())},
  };
  return s;
}

Scenario MakeMomentumSortScenario() {
  apps::LpSolveConfig plain = apps::SortSgdAsSqs();
  apps::LpSolveConfig momentum = plain;
  momentum.sgd.momentum_beta = 0.5;
  Scenario s;
  s.app = "momentum_sort";
  s.title = "Sorting: momentum ablation";
  s.value = harness::TableValue::kSuccessRatePct;
  s.value_label = "success rate (%)";
  s.series = {
      {"sort (no momentum)", SortVariantFn(plain)},
      {"sort (momentum 0.5)", SortVariantFn(momentum)},
  };
  return s;
}

// ---- fig6_2 / fig6_6: least squares ----------------------------------------

harness::TrialFn LsqSgdFn(std::shared_ptr<const apps::LsqProblem> problem,
                          const opt::SgdOptions& options) {
  return [problem, options](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    const linalg::Vector<double> x = core::WithFaultyFpu(
        env, [&] { return apps::SolveLsqSgd<faulty::Real>(*problem, options); },
        &out.fpu_stats);
    out.metric = signal::RelativeError(x, problem->exact);
    out.success = out.metric < 1e-2;
    return out;
  };
}

harness::TrialFn LsqBaselineFn(std::shared_ptr<const apps::LsqProblem> problem,
                               linalg::LsqBaseline which, double threshold) {
  return [problem, which, threshold](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    const linalg::Vector<double> x = core::WithFaultyFpu(
        env,
        [&] { return apps::SolveLsqBaseline<faulty::Real>(*problem, which); },
        &out.fpu_stats);
    out.metric = signal::RelativeError(x, problem->exact);
    out.success = out.metric < threshold;
    return out;
  };
}

Scenario MakeLsqScenario() {
  const auto problem =
      std::make_shared<const apps::LsqProblem>(apps::MakeRandomLsqProblem(100, 10, 7));
  Scenario s;
  s.app = "fig6_2";
  s.title = "Accuracy of Least Squares - 1000 Iterations (median rel. error)";
  s.value = harness::TableValue::kMedianMetric;
  s.value_label = "median relative error w.r.t. ideal";
  s.series = {
      {"Base:SVD", LsqBaselineFn(problem, linalg::LsqBaseline::kSvd, 1e-2)},
      {"SGD,LS", LsqSgdFn(problem, apps::LsqSgdLs())},
      {"SGD+AS,LS", LsqSgdFn(problem, apps::LsqSgdAsLs())},
      {"SGD+AS,SQS", LsqSgdFn(problem, apps::LsqSgdAsSqs())},
  };
  return s;
}

harness::TrialFn LsqCgFn(std::shared_ptr<const apps::LsqProblem> problem) {
  return [problem](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    const opt::CgResult r = core::WithFaultyFpu(
        env, [&] { return apps::SolveLsqCg<faulty::Real>(*problem, apps::LsqCg(10)); },
        &out.fpu_stats);
    out.metric = signal::RelativeError(r.x, problem->exact);
    out.success = out.metric < 1e-3;
    return out;
  };
}

Scenario MakeCgLsqScenario() {
  const auto problem =
      std::make_shared<const apps::LsqProblem>(apps::MakeRandomLsqProblem(100, 10, 8));
  Scenario s;
  s.app = "fig6_6";
  s.title = "Accuracy of Least Squares (median relative error)";
  s.value = harness::TableValue::kMedianMetric;
  s.value_label = "median rel. error w.r.t. ideal";
  s.series = {
      {"Base:QR", LsqBaselineFn(problem, linalg::LsqBaseline::kQr, 1e-3)},
      {"Base:SVD", LsqBaselineFn(problem, linalg::LsqBaseline::kSvd, 1e-3)},
      {"Base:Cholesky", LsqBaselineFn(problem, linalg::LsqBaseline::kCholesky, 1e-3)},
      {"CG,N=10", LsqCgFn(problem)},
  };
  return s;
}

// ---- fig6_3: IIR filtering -------------------------------------------------

struct IirData {
  signal::IirCoefficients coeffs;
  linalg::Vector<double> input;
  linalg::Vector<double> clean;
};

harness::TrialFn IirRobustFn(std::shared_ptr<const IirData> data,
                             const opt::SgdOptions& options) {
  return [data, options](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    const linalg::Vector<double> y = core::WithFaultyFpu(
        env,
        [&] { return apps::RobustIir<faulty::Real>(data->coeffs, data->input, options); },
        &out.fpu_stats);
    out.metric = signal::ErrorToSignalRatio(y, data->clean);
    out.success = out.metric < 1e-2;
    return out;
  };
}

Scenario MakeIirScenario() {
  auto data = std::make_shared<IirData>();
  data->coeffs = signal::MakeStableIir(5, 5, 63);
  data->input = signal::SineMix(500, {3.0, 17.0, 41.0}, {1.0, 0.5, 0.25});
  data->clean = apps::BaselineIir<double>(data->coeffs, data->input);
  const std::shared_ptr<const IirData> shared = data;
  Scenario s;
  s.app = "fig6_3";
  s.title = "Accuracy of IIR - 1000 Iterations (median error/signal)";
  s.value = harness::TableValue::kMedianMetric;
  s.value_label = "median ||y-y*||/||y*||";
  s.series = {
      {"Base",
       [shared](const core::FaultEnvironment& env) {
         harness::TrialOutcome out;
         const linalg::Vector<double> y = core::WithFaultyFpu(
             env,
             [&] { return apps::BaselineIir<faulty::Real>(shared->coeffs, shared->input); },
             &out.fpu_stats);
         out.metric = signal::ErrorToSignalRatio(y, shared->clean);
         out.success = out.metric < 1e-2;
         return out;
       }},
      {"SGD,LS", IirRobustFn(shared, apps::IirSgdLs())},
      {"SGD+AS,LS", IirRobustFn(shared, apps::IirSgdAsLs())},
      {"SGD+AS,SQS", IirRobustFn(shared, apps::IirSgdAsSqs())},
  };
  return s;
}

// ---- fig6_4 / fig6_5 / momentum_matching: bipartite matching ---------------

harness::TrialFn MatchingBaseFn(std::shared_ptr<const graph::BipartiteGraph> g) {
  return [g](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    const graph::Matching m = core::WithFaultyFpu(
        env, [&] { return apps::BaselineMatching<faulty::Real>(*g); }, &out.fpu_stats);
    out.success = apps::MatchesOptimal(*g, m);
    return out;
  };
}

harness::TrialFn MatchingRobustFn(std::shared_ptr<const graph::BipartiteGraph> g,
                                  const apps::LpSolveConfig& config) {
  return [g, config](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    const apps::MatchingResult r = core::WithFaultyFpu(
        env, [&] { return apps::RobustMatching<faulty::Real>(*g, config); },
        &out.fpu_stats);
    out.success = r.valid && apps::MatchesOptimal(*g, r.matching);
    return out;
  };
}

std::shared_ptr<const graph::BipartiteGraph> PaperMatchingGraph() {
  // The paper's graph: 11 nodes, 30 edges (complete 5x6 bipartite).
  return std::make_shared<const graph::BipartiteGraph>(
      graph::RandomBipartite(5, 6, 30, 3));
}

Scenario MakeMatchingScenario() {
  const auto g = PaperMatchingGraph();
  Scenario s;
  s.app = "fig6_4";
  s.title = "Accuracy of Matching - 10000 Iterations";
  s.value = harness::TableValue::kSuccessRatePct;
  s.value_label = "success rate (%)";
  s.series = {
      {"Base", MatchingBaseFn(g)},
      {"SGD,LS", MatchingRobustFn(g, apps::MatchingBasicLs())},
      {"SGD+AS,LS", MatchingRobustFn(g, apps::MatchingSgdAsLs())},
      {"SGD+AS,SQS", MatchingRobustFn(g, apps::MatchingSgdAsSqs())},
  };
  return s;
}

Scenario MakeMatchingEnhancementsScenario() {
  const auto g = PaperMatchingGraph();
  Scenario s;
  s.app = "fig6_5";
  s.title = "Accuracy of Matching - enhancements";
  s.value = harness::TableValue::kSuccessRatePct;
  s.value_label = "success rate (%)";
  s.series = {
      {"Non-robust", MatchingBaseFn(g)},
      {"Basic,LS", MatchingRobustFn(g, apps::MatchingBasicLs())},
      {"SQS", MatchingRobustFn(g, apps::MatchingSqs())},
      {"PRECOND", MatchingRobustFn(g, apps::MatchingPrecond())},
      {"ANNEAL", MatchingRobustFn(g, apps::MatchingAnneal())},
      {"ALL", MatchingRobustFn(g, apps::MatchingAll())},
  };
  return s;
}

Scenario MakeMomentumMatchingScenario() {
  const auto g = PaperMatchingGraph();
  apps::LpSolveConfig plain = apps::MatchingSgdAsSqs();
  apps::LpSolveConfig momentum = plain;
  momentum.sgd.momentum_beta = 0.5;
  Scenario s;
  s.app = "momentum_matching";
  s.title = "Matching: momentum ablation";
  s.value = harness::TableValue::kSuccessRatePct;
  s.value_label = "success rate (%)";
  s.series = {
      {"matching (no momentum)", MatchingRobustFn(g, plain)},
      {"matching (momentum 0.5)", MatchingRobustFn(g, momentum)},
  };
  return s;
}

// ---- maxflow / apsp: LP robustifications -----------------------------------

Scenario MakeMaxFlowScenario() {
  auto net = std::make_shared<const graph::FlowNetwork>(
      graph::RandomFlowNetwork(6, 6, 12));
  const double exact_flow = graph::PushRelabelMaxFlow(*net);
  Scenario s;
  s.app = "maxflow";
  s.title = "Max flow: median relative flow-value error";
  s.value = harness::TableValue::kMedianMetric;
  s.value_label = "median |F-F*|/F*";
  s.series = {
      {"Base: Ford-Fulkerson",
       [net, exact_flow](const core::FaultEnvironment& env) {
         harness::TrialOutcome out;
         const graph::MaxFlowResult r = core::WithFaultyFpu(
             env, [&] { return graph::EdmondsKarpMaxFlow<faulty::Real>(*net); },
             &out.fpu_stats);
         out.metric = std::abs(r.value - exact_flow) / exact_flow;
         out.success = out.metric < 1e-6;
         return out;
       }},
      {"SGD LP",
       [net, exact_flow](const core::FaultEnvironment& env) {
         harness::TrialOutcome out;
         const apps::FlowResult r = core::WithFaultyFpu(
             env,
             [&] { return apps::RobustMaxFlow<faulty::Real>(*net, apps::MaxFlowConfig()); },
             &out.fpu_stats);
         out.metric = r.valid ? std::abs(r.value - exact_flow) / exact_flow : 1e9;
         out.success = r.valid && out.metric < 0.05;
         return out;
       }},
  };
  return s;
}

Scenario MakeApspScenario() {
  auto g = std::make_shared<const graph::Digraph>(graph::RandomDigraph(5, 6, 15));
  auto exact =
      std::make_shared<const linalg::Matrix<double>>(graph::AllPairsDijkstra(*g));
  Scenario s;
  s.app = "apsp";
  s.title = "APSP: median max-abs distance error";
  s.value = harness::TableValue::kMedianMetric;
  s.value_label = "median max |D-D*|";
  s.series = {
      {"Base: Floyd-Warshall",
       [g, exact](const core::FaultEnvironment& env) {
         harness::TrialOutcome out;
         const linalg::Matrix<double> d = core::WithFaultyFpu(
             env,
             [&] { return linalg::ToDouble(graph::FloydWarshall<faulty::Real>(*g)); },
             &out.fpu_stats);
         out.metric = apps::MaxAbsDistanceError(d, *exact);
         out.success = out.metric < 1e-6;
         return out;
       }},
      {"SGD LP",
       [g, exact](const core::FaultEnvironment& env) {
         harness::TrialOutcome out;
         const apps::ApspResult r = core::WithFaultyFpu(
             env, [&] { return apps::RobustApsp<faulty::Real>(*g, apps::ApspConfig()); },
             &out.fpu_stats);
         out.metric = r.valid ? apps::MaxAbsDistanceError(r.distances, *exact) : 1e9;
         out.success = r.valid && out.metric < 0.05;
         return out;
       }},
  };
  return s;
}

// ---- eigen_rayleigh ---------------------------------------------------------

struct EigenData {
  linalg::Matrix<double> a;
  std::vector<apps::Eigenpair> oracle;
};

harness::TrialFn RayleighFn(std::shared_ptr<const EigenData> data, std::size_t k) {
  return [data, k](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    apps::RayleighOptions options;
    options.iterations = 400;
    const auto pairs = core::WithFaultyFpu(
        env,
        [&] { return apps::TopEigenpairsRayleigh<faulty::Real>(data->a, k + 1, options); },
        &out.fpu_stats);
    const double got = pairs.back().value;
    const double want = data->oracle[k].value;
    out.metric = std::abs(got - want) / std::max(1e-9, std::abs(want));
    out.success = out.metric < 0.05;
    return out;
  };
}

Scenario MakeEigenScenario() {
  auto data = std::make_shared<EigenData>();
  std::mt19937_64 rng(72);
  data->a = linalg::RandomSymmetricMatrix(8, rng);
  data->oracle = apps::JacobiEigenSym(data->a);
  const std::shared_ptr<const EigenData> shared = data;
  Scenario s;
  s.app = "eigen_rayleigh";
  s.title = "Rayleigh eigenpairs: median relative eigenvalue error";
  s.value = harness::TableValue::kMedianMetric;
  s.value_label = "median |l - l*| / |l*|";
  s.series = {
      {"lambda_1", RayleighFn(shared, 0)},
      {"lambda_2", RayleighFn(shared, 1)},
      {"lambda_3", RayleighFn(shared, 2)},
  };
  return s;
}

// ---- svm --------------------------------------------------------------------

harness::TrialFn SvmFn(std::shared_ptr<const apps::SvmDataset> data) {
  return [data](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    const apps::SvmResult r = core::WithFaultyFpu(
        env,
        [&] {
          return apps::TrainSvm<faulty::Real>(
              *data, 0.01, core::MakeSgd(300, 1.0, opt::StepScaling::kSqrt));
        },
        &out.fpu_stats);
    out.metric = 1.0 - r.train_accuracy;  // error rate, lower is better
    out.success = r.train_accuracy >= 0.95;
    return out;
  };
}

Scenario MakeSvmScenario() {
  const auto easy = std::make_shared<const apps::SvmDataset>(
      apps::MakeBlobsDataset(40, 6, 4.0, 11));
  const auto hard = std::make_shared<const apps::SvmDataset>(
      apps::MakeBlobsDataset(40, 6, 1.5, 12));
  Scenario s;
  s.app = "svm";
  s.title = "SVM training error rate vs fault rate";
  s.value = harness::TableValue::kMedianMetric;
  s.value_label = "median training error rate";
  s.series = {
      {"margin=4.0", SvmFn(easy)},
      {"margin=1.5", SvmFn(hard)},
  };
  return s;
}

// ---- fault_model_ablation: every fault model on sort and lsq ---------------

// The series' own fault model replaces the bit model, temporal model and op
// classes of the environment it receives; rate, seed, law parameters and
// guard still come from the spec (BuildScenario refuses a spec that sets
// the replaced fields, which would otherwise be silently overridden).
harness::TrialFn UnderFaultModel(harness::TrialFn trial, faulty::BitModel bit_model,
                                 faulty::Temporal temporal, unsigned op_classes) {
  return [trial = std::move(trial), bit_model, temporal,
          op_classes](const core::FaultEnvironment& env) {
    core::FaultEnvironment own = env;
    own.bit_model = bit_model;
    own.model.temporal = temporal;
    own.model.op_classes = op_classes;
    return trial(own);
  };
}

// Chapter 7 (future work): robustness under other fault models.  One series
// per app x bit model x temporal model x op-class mask, named
// "app/bit/temporal/classes"; the spec's guard bounds the sticky models'
// trials, whose exponent faults can otherwise let a solver grind.
Scenario MakeFaultModelAblationScenario() {
  const struct {
    const char* name;
    harness::TrialFn trial;
  } apps_axis[] = {
      {"sort", SortVariantFn(apps::SortSgdAsSqs(),
                             std::make_shared<const std::vector<double>>(
                                 std::vector<double>{0.9, 0.1, 0.6, 0.3, 0.7}))},
      {"lsq", LsqSgdFn(std::make_shared<const apps::LsqProblem>(
                           apps::MakeRandomLsqProblem(100, 10, 12)),
                       apps::LsqSgdAsLs())},
  };
  const struct {
    faulty::BitModel model;
    const char* name;
  } bit_models[] = {
      {faulty::BitModel::kBimodal, "bimodal"},
      {faulty::BitModel::kUniform, "uniform"},
      {faulty::BitModel::kMsbOnly, "msb"},
      {faulty::BitModel::kLsbOnly, "lsb"},
  };
  const faulty::Temporal temporals[] = {
      faulty::Temporal::kTransient, faulty::Temporal::kStuckAt,
      faulty::Temporal::kBurst, faulty::Temporal::kIntermittent};
  const struct {
    unsigned mask;
    const char* name;
  } op_classes[] = {
      {faulty::kOpClassArith, "arith"},
      {faulty::kOpClassDefault, "arith+cmp"},
      {faulty::kOpClassAll, "arith+cmp+mem"},
  };
  Scenario s;
  s.app = "fault_model_ablation";
  s.title = "Fault-model ablation (median relative error; sort reports 0)";
  s.value = harness::TableValue::kMedianMetric;
  s.value_label = "median relative error w.r.t. ideal";
  for (const auto& app : apps_axis) {
    for (const auto& bit : bit_models) {
      for (const faulty::Temporal temporal : temporals) {
        for (const auto& classes : op_classes) {
          s.series.push_back(
              {std::string(app.name) + "/" + bit.name + "/" +
                   faulty::TemporalName(temporal) + "/" + classes.name,
               UnderFaultModel(app.trial, bit.model, temporal, classes.mask)});
        }
      }
    }
  }
  return s;
}

// ---- dispatch ---------------------------------------------------------------

struct ScenarioEntry {
  const char* app;
  Scenario (*make)();
  // The series set their own bit model, temporal model and op classes.
  bool series_own_fault_model = false;
};

constexpr ScenarioEntry kScenarios[] = {
    {"fig6_1", MakeSortScenario},
    {"fig6_2", MakeLsqScenario},
    {"fig6_3", MakeIirScenario},
    {"fig6_4", MakeMatchingScenario},
    {"fig6_5", MakeMatchingEnhancementsScenario},
    {"fig6_6", MakeCgLsqScenario},
    {"momentum_sort", MakeMomentumSortScenario},
    {"momentum_matching", MakeMomentumMatchingScenario},
    {"maxflow", MakeMaxFlowScenario},
    {"apsp", MakeApspScenario},
    {"eigen_rayleigh", MakeEigenScenario},
    {"svm", MakeSvmScenario},
    {"fault_model_ablation", MakeFaultModelAblationScenario, true},
};

const ScenarioEntry& FindScenario(const std::string& app) {
  for (const ScenarioEntry& entry : kScenarios) {
    if (app == entry.app) return entry;
  }
  throw std::runtime_error("unknown scenario app '" + app + "'");
}

}  // namespace

std::vector<std::string> ScenarioSeriesNames(const std::string& app) {
  const Scenario s = FindScenario(app).make();
  std::vector<std::string> names;
  names.reserve(s.series.size());
  for (const harness::NamedTrial& t : s.series) names.push_back(t.name);
  return names;
}

Scenario BuildScenario(const CampaignSpec& spec) {
  const ScenarioEntry& entry = FindScenario(spec.app);
  if (entry.series_own_fault_model &&
      (spec.bit_model != faulty::BitModel::kBimodal ||
       spec.model.temporal != faulty::Temporal::kTransient ||
       spec.model.op_classes != faulty::kOpClassDefault)) {
    throw std::runtime_error("scenario '" + spec.app +
                             "' sets each series' bit_model, model and op_classes; "
                             "the spec must leave them at their defaults");
  }
  Scenario s = entry.make();
  if (spec.series.empty()) return s;
  std::vector<harness::NamedTrial> selected;
  selected.reserve(spec.series.size());
  for (const std::string& name : spec.series) {
    bool found = false;
    for (const harness::NamedTrial& t : s.series) {
      if (t.name == name) {
        selected.push_back(t);
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::runtime_error("scenario '" + spec.app + "' has no series '" + name +
                               "'");
    }
  }
  s.series = std::move(selected);
  return s;
}

}  // namespace robustify::campaign
