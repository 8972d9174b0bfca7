#include "campaign/spec.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

namespace robustify::campaign {

namespace {

std::string Trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// Line 0 is text from outside a spec file (ParseRateAxis).
[[noreturn]] void Fail(int line, const std::string& what) {
  if (line == 0) throw std::runtime_error(what);
  throw std::runtime_error("spec line " + std::to_string(line) + ": " + what);
}

// Spec keys report the line the bad integer sits on.
int ParseIntAt(int line, const std::string& key, const std::string& value) {
  try {
    return ParseInt(key, value);
  } catch (const std::runtime_error& e) {
    Fail(line, e.what());
  }
}

std::uint64_t ParseU64At(int line, const std::string& key, const std::string& value) {
  try {
    return ParseU64(key, value);
  } catch (const std::runtime_error& e) {
    Fail(line, e.what());
  }
}

double ParseDouble(int line, const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    Fail(line, "malformed number for '" + key + "': " + value);
  }
  return parsed;
}

std::vector<double> ParseRateList(int line, const std::string& value) {
  std::vector<double> rates;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = value.find(',', pos);
    const std::string item =
        Trim(comma == std::string::npos ? value.substr(pos)
                                        : value.substr(pos, comma - pos));
    if (item.empty()) Fail(line, "empty entry in rates list");
    const double rate = ParseDouble(line, "rates", item);
    // A fault rate is a per-op probability: the injector cannot scale NaN
    // to its threshold, and would silently clamp the rest to 0 or 1.
    if (!(rate >= 0.0 && rate <= 1.0)) {
      Fail(line, "fault rate outside [0, 1] in rates list: " + item);
    }
    rates.push_back(rate);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (rates.empty()) Fail(line, "rates list is empty");
  return rates;
}

const char* BitModelName(faulty::BitModel model) {
  switch (model) {
    case faulty::BitModel::kBimodal: return "bimodal";
    case faulty::BitModel::kUniform: return "uniform";
    case faulty::BitModel::kMsbOnly: return "msb";
    case faulty::BitModel::kLsbOnly: return "lsb";
  }
  return "bimodal";
}

faulty::BitModel ParseBitModel(int line, const std::string& value) {
  if (value == "bimodal") return faulty::BitModel::kBimodal;
  if (value == "uniform") return faulty::BitModel::kUniform;
  if (value == "msb") return faulty::BitModel::kMsbOnly;
  if (value == "lsb") return faulty::BitModel::kLsbOnly;
  Fail(line, "unknown bit_model '" + value + "' (bimodal|uniform|msb|lsb)");
}

// Shortest-round-trip formatting for the rate axis: %.17g always round-trips
// binary64, and the parse side accepts anything strtod does.
std::string FormatRate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", rate);
  return buf;
}

}  // namespace

CampaignSpec ParseSpec(std::istream& is) {
  CampaignSpec spec;
  spec.fault_rates.clear();
  bool saw_rates = false;
  std::set<std::string> seen;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) Fail(line_no, "expected 'key = value': " + line);
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (value.empty()) Fail(line_no, "empty value for '" + key + "'");
    // Last-wins would let a stray line silently override a spec; only the
    // series list is built from repeated lines.
    if (key != "series" && !seen.insert(key).second) {
      Fail(line_no, "duplicate key '" + key + "'");
    }
    if (key == "name") {
      spec.name = value;
    } else if (key == "app") {
      spec.app = value;
    } else if (key == "series") {
      spec.series.push_back(value);
    } else if (key == "rates") {
      spec.fault_rates = ParseRateList(line_no, value);
      saw_rates = true;
    } else if (key == "trials") {
      spec.fixed_trials = ParseIntAt(line_no, key, value);
    } else if (key == "budget") {
      spec.max_trials = ParseIntAt(line_no, key, value);
    } else if (key == "min_trials") {
      spec.min_trials = ParseIntAt(line_no, key, value);
    } else if (key == "batch") {
      spec.batch = ParseIntAt(line_no, key, value);
    } else if (key == "ci") {
      spec.ci_half_width = ParseDouble(line_no, key, value);
    } else if (key == "seed") {
      spec.base_seed = ParseU64At(line_no, key, value);
    } else if (key == "bit_model") {
      spec.bit_model = ParseBitModel(line_no, value);
    } else if (key == "shard") {
      try {
        const std::pair<int, int> shard = ParseShard(value);
        spec.shard_index = shard.first;
        spec.shard_count = shard.second;
      } catch (const std::runtime_error& e) {
        Fail(line_no, e.what());
      }
    } else if (key == "model") {
      const std::optional<faulty::Temporal> temporal = faulty::ParseTemporal(value);
      if (!temporal) {
        Fail(line_no, "unknown model '" + value +
                          "' (transient|stuck|burst|intermittent)");
      }
      spec.model.temporal = *temporal;
    } else if (key == "op_classes") {
      try {
        spec.model.op_classes = faulty::ParseOpClasses(value);
      } catch (const std::runtime_error& e) {
        Fail(line_no, e.what());
      }
    } else if (key == "stuck_mean") {
      spec.model.stuck_mean_ops = ParseDouble(line_no, key, value);
    } else if (key == "burst_width") {
      spec.model.burst_width_max = ParseIntAt(line_no, key, value);
    } else if (key == "window_mean") {
      spec.model.window_mean_ops = ParseDouble(line_no, key, value);
    } else if (key == "window_rate") {
      spec.model.window_rate = ParseDouble(line_no, key, value);
    } else if (key == "guard_flops") {
      spec.guard.max_flops = ParseU64At(line_no, key, value);
    } else if (key == "guard_iters") {
      spec.guard.max_iterations = ParseIntAt(line_no, key, value);
    } else if (key == "guard_bailout") {
      if (value == "1" || value == "true") {
        spec.guard.nonfinite_bailout = true;
      } else if (value == "0" || value == "false") {
        spec.guard.nonfinite_bailout = false;
      } else {
        Fail(line_no, "guard_bailout must be 0|1|true|false, got '" + value + "'");
      }
    } else {
      Fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (spec.app.empty()) throw std::runtime_error("spec: missing required key 'app'");
  if (!saw_rates) throw std::runtime_error("spec: missing required key 'rates'");
  if (spec.name.empty()) spec.name = spec.app;
  if (spec.fixed_trials < 1 || spec.max_trials < 1 || spec.min_trials < 1 ||
      spec.batch < 1) {
    throw std::runtime_error("spec: trials/budget/min_trials/batch must be >= 1");
  }
  if (spec.min_trials > spec.max_trials) {
    throw std::runtime_error("spec: min_trials exceeds budget");
  }
  if (!(spec.ci_half_width > 0.0)) {
    throw std::runtime_error("spec: ci must be > 0");
  }
  if (!(spec.model.stuck_mean_ops >= 1.0)) {
    throw std::runtime_error("spec: stuck_mean must be >= 1");
  }
  if (spec.model.burst_width_max < 1 || spec.model.burst_width_max > 64) {
    throw std::runtime_error("spec: burst_width must be in [1, 64]");
  }
  if (!(spec.model.window_mean_ops >= 1.0)) {
    throw std::runtime_error("spec: window_mean must be >= 1");
  }
  if (!(spec.model.window_rate >= 0.0 && spec.model.window_rate <= 1.0)) {
    throw std::runtime_error("spec: window_rate must be in [0, 1]");
  }
  if (spec.guard.max_iterations < 0) {
    throw std::runtime_error("spec: guard_iters must be >= 0");
  }
  return spec;
}

CampaignSpec ParseSpecFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open spec file " + path);
  return ParseSpec(is);
}

std::vector<double> ParseRateAxis(const std::string& text) {
  return ParseRateList(0, text);
}

std::pair<int, int> ParseShard(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    throw std::runtime_error("malformed shard '" + text + "' (expected i/N)");
  }
  const auto parse_part = [&](const std::string& part) {
    try {
      return ParseInt("shard", part);
    } catch (const std::runtime_error&) {
      throw std::runtime_error("malformed shard '" + text + "' (expected i/N)");
    }
  };
  const int index = parse_part(text.substr(0, slash));
  const int count = parse_part(text.substr(slash + 1));
  if (count < 1) {
    throw std::runtime_error("shard '" + text + "': N must be >= 1");
  }
  if (index < 0 || index >= count) {
    throw std::runtime_error("shard '" + text +
                             "': index must be in [0, N) — this shard would own "
                             "zero cells");
  }
  return {index, count};
}

// Integers must fit their field: a value that does not survive FormatSpec
// would change the spec's fingerprint between a run and its resume.
int ParseInt(const std::string& key, const std::string& text, int min_value) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw std::runtime_error("malformed integer for '" + key + "': " + text);
  }
  if (errno == ERANGE || parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    throw std::runtime_error("integer out of range for '" + key + "': " + text);
  }
  if (parsed < min_value) {
    throw std::runtime_error("'" + key + "' must be >= " + std::to_string(min_value) +
                             ": " + text);
  }
  return static_cast<int>(parsed);
}

std::uint64_t ParseU64(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  // strtoull negates a leading '-' (after any whitespace); digits only.
  if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0') {
    throw std::runtime_error("malformed unsigned integer for '" + key + "': " + text);
  }
  if (errno == ERANGE) {
    throw std::runtime_error("integer out of range for '" + key + "': " + text);
  }
  return static_cast<std::uint64_t>(parsed);
}

std::string FormatSpec(const CampaignSpec& spec) {
  std::ostringstream os;
  os << "name = " << spec.name << "\n";
  os << "app = " << spec.app << "\n";
  for (const std::string& s : spec.series) os << "series = " << s << "\n";
  os << "rates = ";
  for (std::size_t i = 0; i < spec.fault_rates.size(); ++i) {
    if (i) os << ",";
    os << FormatRate(spec.fault_rates[i]);
  }
  os << "\n";
  os << "trials = " << spec.fixed_trials << "\n";
  os << "budget = " << spec.max_trials << "\n";
  os << "min_trials = " << spec.min_trials << "\n";
  os << "batch = " << spec.batch << "\n";
  os << "ci = " << FormatRate(spec.ci_half_width) << "\n";
  os << "seed = " << spec.base_seed << "\n";
  os << "bit_model = " << BitModelName(spec.bit_model) << "\n";
  if (spec.shard_count != 1) {
    os << "shard = " << spec.shard_index << "/" << spec.shard_count << "\n";
  }
  // Model and guard keys are emitted only when non-default: pre-model specs
  // keep their historical canonical form, so their fingerprints — and every
  // journal recorded against them — stay valid.  An explicit `model =
  // transient` is the default stream and canonicalizes away with it.
  const faulty::FaultModel defaults;
  if (spec.model.temporal != defaults.temporal) {
    os << "model = " << faulty::TemporalName(spec.model.temporal) << "\n";
  }
  if (spec.model.op_classes != faulty::kOpClassDefault) {
    os << "op_classes = " << faulty::OpClassesName(spec.model.op_classes) << "\n";
  }
  if (spec.model.stuck_mean_ops != defaults.stuck_mean_ops) {
    os << "stuck_mean = " << FormatRate(spec.model.stuck_mean_ops) << "\n";
  }
  if (spec.model.burst_width_max != defaults.burst_width_max) {
    os << "burst_width = " << spec.model.burst_width_max << "\n";
  }
  if (spec.model.window_mean_ops != defaults.window_mean_ops) {
    os << "window_mean = " << FormatRate(spec.model.window_mean_ops) << "\n";
  }
  if (spec.model.window_rate != defaults.window_rate) {
    os << "window_rate = " << FormatRate(spec.model.window_rate) << "\n";
  }
  if (spec.guard.max_flops != 0) {
    os << "guard_flops = " << spec.guard.max_flops << "\n";
  }
  if (spec.guard.max_iterations != 0) {
    os << "guard_iters = " << spec.guard.max_iterations << "\n";
  }
  if (spec.guard.nonfinite_bailout) os << "guard_bailout = 1\n";
  return os.str();
}

std::string CanonicalSpecText(const CampaignSpec& spec) {
  // Canonical form minus every knob that provably cannot change a journaled
  // outcome: trial t of a cell always runs at seed base_seed + t, so the
  // per-cell outcome *sequence* is a pure function of the scenario, series
  // subset, rate axis, seed, bit model, fault model, and guard.  Batch size
  // only schedules speculation, sharding only selects which cells this
  // process runs, and the trial-allocation knobs (fixed trials, adaptive
  // budget/floor/ci target) only decide how far along each cell's sequence
  // sampling stops — every run of the campaign journals a *prefix* of the
  // same sequences.  Hashing any of them would make resume reject journals
  // it could continue byte-identically, keep one campaign's shard journals
  // from merging into one store key, and fragment the result store into a
  // key per precision target instead of one cache the query service can
  // serve at any requested ci.
  CampaignSpec canonical = spec;
  const CampaignSpec defaults;
  canonical.batch = defaults.batch;
  canonical.shard_index = defaults.shard_index;
  canonical.shard_count = defaults.shard_count;
  canonical.fixed_trials = defaults.fixed_trials;
  canonical.min_trials = defaults.min_trials;
  canonical.max_trials = defaults.max_trials;
  canonical.ci_half_width = defaults.ci_half_width;
  return FormatSpec(canonical);
}

std::uint64_t SpecFingerprint(const CampaignSpec& spec) {
  const std::string text = CanonicalSpecText(spec);
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

// ---- registry ---------------------------------------------------------------

namespace {

CampaignSpec MakeSpec(const char* name, const char* app,
                      std::vector<double> rates, int fixed_trials,
                      std::uint64_t seed) {
  CampaignSpec spec;
  spec.name = name;
  spec.app = app;
  spec.fault_rates = std::move(rates);
  spec.fixed_trials = fixed_trials;
  spec.base_seed = seed;
  return spec;
}

// The paper-figure table `robustify_cli run <name> --fixed` regenerates.
// Axis, default fixed trial count, and seed are pinned: changing one
// changes the committed figure it defines.
const std::vector<CampaignSpec>& Registry() {
  static const std::vector<CampaignSpec> specs = {
      MakeSpec("fig6_1", "fig6_1", {0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5}, 10, 61),
      MakeSpec("fig6_2", "fig6_2", {0.0, 0.0001, 0.001, 0.01, 0.05, 0.1}, 10, 62),
      MakeSpec("fig6_3", "fig6_3", {0.0, 0.001, 0.005, 0.01, 0.02}, 8, 63),
      MakeSpec("fig6_4", "fig6_4", {0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5}, 10, 64),
      MakeSpec("fig6_5", "fig6_5", {0.0, 0.02, 0.1, 0.3, 0.5}, 8, 65),
      MakeSpec("fig6_6", "fig6_6", {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}, 10, 66),
      MakeSpec("momentum_sort", "momentum_sort", {0.1, 0.3, 0.5}, 10, 70),
      MakeSpec("momentum_matching", "momentum_matching", {0.1, 0.3, 0.5}, 10, 70),
      MakeSpec("maxflow", "maxflow", {0.0, 0.01, 0.05, 0.1, 0.2}, 6, 71),
      MakeSpec("apsp", "apsp", {0.0, 0.01, 0.05, 0.1, 0.2}, 6, 71),
      MakeSpec("eigen_rayleigh", "eigen_rayleigh", {0.0, 0.001, 0.01, 0.05, 0.1}, 6,
               72),
      MakeSpec("svm", "svm", {0.0, 0.01, 0.05, 0.1, 0.3, 0.5}, 6, 74),
  };
  return specs;
}

}  // namespace

const std::vector<std::string>& RegistryNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const CampaignSpec& spec : Registry()) out.push_back(spec.name);
    return out;
  }();
  return names;
}

const CampaignSpec* FindRegistrySpec(const std::string& name) {
  for (const CampaignSpec& spec : Registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const CampaignSpec& RegistrySpec(const std::string& name) {
  if (const CampaignSpec* spec = FindRegistrySpec(name)) return *spec;
  std::string known;
  for (const std::string& n : RegistryNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::runtime_error("unknown campaign '" + name + "' (registered: " + known +
                           ")");
}

core::FaultEnvironment SpecEnvironment(const CampaignSpec& spec, int rate_index) {
  core::FaultEnvironment env;
  env.fault_rate = spec.fault_rates[static_cast<std::size_t>(rate_index)];
  env.seed = spec.base_seed;
  env.bit_model = spec.bit_model;
  env.model = spec.model;
  env.guard = spec.guard;
  return env;
}

}  // namespace robustify::campaign
