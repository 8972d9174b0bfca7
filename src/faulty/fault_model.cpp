#include "faulty/fault_model.h"

#include <cmath>
#include <stdexcept>

namespace robustify::faulty {

bool IsDefaultModel(const FaultModel& model) {
  return model.temporal == Temporal::kTransient && model.op_classes == kOpClassDefault;
}

const char* TemporalName(Temporal temporal) {
  switch (temporal) {
    case Temporal::kTransient: return "transient";
    case Temporal::kStuckAt: return "stuck";
    case Temporal::kBurst: return "burst";
    case Temporal::kIntermittent: return "intermittent";
  }
  return "";
}

std::optional<Temporal> ParseTemporal(const std::string& text) {
  if (text == "transient") return Temporal::kTransient;
  if (text == "stuck" || text == "stuck-at" || text == "stuckat") {
    return Temporal::kStuckAt;
  }
  if (text == "burst") return Temporal::kBurst;
  if (text == "intermittent") return Temporal::kIntermittent;
  return std::nullopt;
}

std::string OpClassesName(unsigned op_classes) {
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (op_classes & kOpClassArith) append("arith");
  if (op_classes & kOpClassCompare) append("cmp");
  if (op_classes & kOpClassMemory) append("mem");
  return out;
}

unsigned ParseOpClasses(const std::string& text) {
  unsigned mask = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    std::string item = comma == std::string::npos ? text.substr(pos)
                                                  : text.substr(pos, comma - pos);
    // Trim ASCII whitespace on both ends.
    const std::size_t b = item.find_first_not_of(" \t");
    const std::size_t e = item.find_last_not_of(" \t");
    item = b == std::string::npos ? "" : item.substr(b, e - b + 1);
    if (item == "arith") {
      mask |= kOpClassArith;
    } else if (item == "cmp" || item == "compare") {
      mask |= kOpClassCompare;
    } else if (item == "mem" || item == "memory") {
      mask |= kOpClassMemory;
    } else {
      throw std::runtime_error("unknown op class '" + item +
                               "' (arith|cmp|mem)");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (mask == 0) throw std::runtime_error("op-class mask is empty");
  return mask;
}

namespace {

// Geometric on {1, 2, ...} with success probability p = 1/mean by inverse
// CDF: d = 1 + floor(log(u) / log(1 - p)) for u uniform on (0, 1].  The
// law matches the gap sampler's convention shifted by one — a window always
// covers at least the op that opened it.
std::uint64_t SampleGeometricAtLeastOne(double mean, Lfsr& rng) {
  if (!(mean > 1.0)) return 1;
  const double p = 1.0 / mean;
  // Map the 64-bit draw to (0, 1]: (u + 1) / 2^64 never gives log(0).
  const double u =
      (static_cast<double>(rng.next() >> 11) + 1.0) * (1.0 / 9007199254740992.0);
  const double draws = std::floor(std::log(u) / std::log1p(-p));
  if (!(draws >= 0.0)) return 1;
  if (draws >= 18446744073709549568.0) return ~0ull;  // saturate, never wraps
  return 1 + static_cast<std::uint64_t>(draws);
}

}  // namespace

std::uint64_t SampleStuckDuration(double mean_ops, Lfsr& rng) {
  return SampleGeometricAtLeastOne(mean_ops, rng);
}

int SampleBurstWidth(int width_max, Lfsr& rng) {
  if (width_max <= 1) return 1;
  const std::uint64_t u = rng.next() >> 32;
  return 1 + static_cast<int>((u * static_cast<std::uint64_t>(width_max)) >> 32);
}

std::uint64_t SampleWindowLength(double mean_ops, Lfsr& rng) {
  return SampleGeometricAtLeastOne(mean_ops, rng);
}

}  // namespace robustify::faulty
