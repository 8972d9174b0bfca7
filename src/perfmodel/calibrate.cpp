#include "perfmodel/calibrate.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "telemetry/metrics_export.h"
#include "telemetry/trace.h"

namespace robustify::perfmodel {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Keeps the compiler from deleting a probe loop whose results are never
// read.  The empty asm claims to read the pointed-to memory.
inline void KeepAlive(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r"(p) : "memory");
#else
  static volatile const void* sink;
  sink = p;
#endif
}

// Dual interleaved Horner chains on x^2, recombined as p*x + q: per element
// 1 (x*x) + 4*(kHalfTerms-1) (two mul+add chains) + 2 (recombine) ops, all
// mul/add — the op mix every faulty-BLAS kernel is built from.  Two
// independent chains per element plus independence across elements keeps
// the FP ports busy instead of serializing on one dependency chain.
constexpr int kHalfTerms = 5;
constexpr double kFlopsPerElement = 1.0 + 4.0 * (kHalfTerms - 1) + 2.0;

// The polynomial pass both compute probes share (duplicated rather than
// shared through a helper: GCC's optimize attribute is function-scoped and
// must not leak between the two variants).  Coefficients below 1 and
// |x| <= 1 keep every intermediate finite across unbounded repetition.
#define ROBUSTIFY_POLYNOMIAL_PASS_BODY                                        \
  constexpr double kP[kHalfTerms] = {0.251, -0.127, 0.0633, -0.0317, 0.0158}; \
  constexpr double kQ[kHalfTerms] = {-0.249, 0.1255, -0.0629, 0.0311,         \
                                     -0.0156};                                \
  for (std::size_t i = 0; i < n; ++i) {                                       \
    const double x = src[i];                                                  \
    const double x2 = x * x;                                                  \
    double p = kP[0];                                                         \
    double q = kQ[0];                                                         \
    for (int k = 1; k < kHalfTerms; ++k) {                                    \
      p = p * x2 + kP[k];                                                     \
      q = q * x2 + kQ[k];                                                     \
    }                                                                         \
    dst[i] = p * x + q;                                                       \
  }

// Non-GCC builds may still vectorize this variant; the scalar peak then
// degrades to a duplicate of the vector peak, which only loosens the
// per-scalar loops' (informational) ceiling.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
void PolynomialPassScalar(const double* src, double* dst, std::size_t n) {
  ROBUSTIFY_POLYNOMIAL_PASS_BODY
}

void PolynomialPassVector(const double* src, double* dst, std::size_t n) {
  ROBUSTIFY_POLYNOMIAL_PASS_BODY
}

#undef ROBUSTIFY_POLYNOMIAL_PASS_BODY

// Best-of-N rate for `flops_per_pass` ops: each round repeats the pass
// until it has run for at least `min_seconds`, and the fastest round wins
// (peak probes want the least-disturbed measurement, not the average).
template <typename PassFn>
double MeasureGopsPerSec(const PassFn& pass, double flops_per_pass,
                         const CalibrationOptions& options) {
  double best = 0.0;
  for (int round = 0; round < options.rounds; ++round) {
    std::size_t passes = 0;
    const double start = NowSeconds();
    double elapsed = 0.0;
    do {
      pass();
      ++passes;
      elapsed = NowSeconds() - start;
    } while (elapsed < options.seconds_per_probe);
    if (elapsed > 0.0) {
      const double gops =
          flops_per_pass * static_cast<double>(passes) / elapsed / 1e9;
      if (gops > best) best = gops;
    }
  }
  return best;
}

double ComputePeakGops(bool vectorize, const CalibrationOptions& options) {
  // L1-resident working set: the probe measures arithmetic issue rate, not
  // memory.  16 KiB in, 16 KiB out.
  constexpr std::size_t kN = 2048;
  std::vector<double> src(kN), dst(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    src[i] = 0.25 + 0.5 * static_cast<double>(i % 97) / 97.0;
  }
  const auto pass = [&] {
    if (vectorize) {
      PolynomialPassVector(src.data(), dst.data(), kN);
    } else {
      PolynomialPassScalar(src.data(), dst.data(), kN);
    }
    KeepAlive(dst.data());
  };
  return MeasureGopsPerSec(pass, kFlopsPerElement * static_cast<double>(kN),
                           options);
}

double TriadBandwidthGbps(const CalibrationOptions& options) {
  const std::size_t n = options.triad_elements;
  std::vector<double> a(n, 0.0), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<double>(i % 1024) * 0.001;
    c[i] = static_cast<double>((i + 7) % 1024) * 0.002;
  }
  const double scalar = 3.0;
  double* pa = a.data();
  const double* pb = b.data();
  const double* pc = c.data();
  const auto pass = [&] {
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
    KeepAlive(pa);
  };
  // STREAM triad convention: 24 bytes per element (read b, read c, write
  // a); write-allocate traffic is not counted, matching published numbers.
  const double bytes_per_pass = 24.0 * static_cast<double>(n);
  double best = 0.0;
  for (int round = 0; round < options.rounds; ++round) {
    std::size_t passes = 0;
    const double start = NowSeconds();
    double elapsed = 0.0;
    do {
      pass();
      ++passes;
      elapsed = NowSeconds() - start;
    } while (elapsed < options.seconds_per_probe);
    if (elapsed > 0.0) {
      const double gbps =
          bytes_per_pass * static_cast<double>(passes) / elapsed / 1e9;
      if (gbps > best) best = gbps;
    }
  }
  return best;
}

// Two-stream probe: x[i] *= s in place.  16 bytes/element (one read, one
// write of the same line, no write-allocate) — the access pattern of the
// read+modify+write kernels (axpy, scal, rot, ...), which sustain more
// than a 3-stream triad on most hosts.
double InplaceScaleBandwidthGbps(const CalibrationOptions& options) {
  const std::size_t n = options.triad_elements;
  std::vector<double> x(n, 1.0);
  double* px = x.data();
  // Alternate a shrink and its exact inverse so unbounded repetition never
  // drifts toward denormals (multiplying by s then 1/s is exact here).
  const double down = 0.5;
  const double up = 2.0;
  const double bytes_per_pass = 16.0 * static_cast<double>(n);
  double best = 0.0;
  for (int round = 0; round < options.rounds; ++round) {
    std::size_t passes = 0;
    const double start = NowSeconds();
    double elapsed = 0.0;
    do {
      const double s = (passes % 2 == 0) ? down : up;
      for (std::size_t i = 0; i < n; ++i) px[i] *= s;
      KeepAlive(px);
      ++passes;
      elapsed = NowSeconds() - start;
    } while (elapsed < options.seconds_per_probe);
    if (elapsed > 0.0) {
      const double gbps =
          bytes_per_pass * static_cast<double>(passes) / elapsed / 1e9;
      if (gbps > best) best = gbps;
    }
  }
  return best;
}

std::string UtcNowIso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &now);
#else
  gmtime_r(&now, &tm_utc);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

// Finds `"key"` at object level and parses the number after the colon.
// The profile is our own flat writer's output, so a scan is unambiguous.
bool ScanNumberField(const std::string& text, const std::string& key,
                     double* value) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  std::size_t i = at + needle.size();
  while (i < text.size() && (text[i] == ' ' || text[i] == ':')) ++i;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str() + i, &end);
  if (end == text.c_str() + i) return false;
  *value = parsed;
  return true;
}

}  // namespace

MachineProfile Calibrate(const CalibrationOptions& options) {
  telemetry::SpanScope calibrate_span("calibrate");
  MachineProfile profile;
  const double start = NowSeconds();
  profile.scalar_peak_gops = ComputePeakGops(/*vectorize=*/false, options);
  profile.vector_peak_gops = ComputePeakGops(/*vectorize=*/true, options);
  profile.triad_bandwidth_gbps = TriadBandwidthGbps(options);
  const double inplace = InplaceScaleBandwidthGbps(options);
  profile.sustained_bandwidth_gbps =
      inplace > profile.triad_bandwidth_gbps ? inplace
                                             : profile.triad_bandwidth_gbps;
  profile.calibration_seconds = NowSeconds() - start;
  profile.created_utc = UtcNowIso8601();
  profile.valid = std::isfinite(profile.scalar_peak_gops) &&
                  profile.scalar_peak_gops > 0.0 &&
                  std::isfinite(profile.vector_peak_gops) &&
                  profile.vector_peak_gops > 0.0 &&
                  std::isfinite(profile.triad_bandwidth_gbps) &&
                  profile.triad_bandwidth_gbps > 0.0 &&
                  std::isfinite(profile.sustained_bandwidth_gbps) &&
                  profile.sustained_bandwidth_gbps > 0.0;
  return profile;
}

void WriteMachineProfile(const std::string& path,
                         const MachineProfile& profile) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open machine profile for writing: " + path);
  }
  std::ostringstream body;
  body.precision(9);
  body << "{\n"
       << "  \"format\": 1,\n"
       << "  \"created_utc\": \"" << telemetry::JsonEscape(profile.created_utc)
       << "\",\n"
       << "  \"scalar_peak_gops\": " << profile.scalar_peak_gops << ",\n"
       << "  \"vector_peak_gops\": " << profile.vector_peak_gops << ",\n"
       << "  \"triad_bandwidth_gbps\": " << profile.triad_bandwidth_gbps << ",\n"
       << "  \"sustained_bandwidth_gbps\": " << profile.sustained_bandwidth_gbps
       << ",\n"
       << "  \"calibration_seconds\": " << profile.calibration_seconds << ",\n"
       << "  \"provenance\": " << telemetry::ProvenanceJson() << "\n"
       << "}\n";
  out << body.str();
  if (!out.good()) {
    throw std::runtime_error("failed writing machine profile: " + path);
  }
}

MachineProfile LoadMachineProfile(const std::string& path) {
  MachineProfile profile;
  std::ifstream in(path);
  if (!in) return profile;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (!ScanNumberField(text, "scalar_peak_gops", &profile.scalar_peak_gops) ||
      !ScanNumberField(text, "vector_peak_gops", &profile.vector_peak_gops) ||
      !ScanNumberField(text, "triad_bandwidth_gbps",
                       &profile.triad_bandwidth_gbps)) {
    return profile;
  }
  // Profiles from before the two-stream probe fall back to the triad roof.
  if (!ScanNumberField(text, "sustained_bandwidth_gbps",
                       &profile.sustained_bandwidth_gbps)) {
    profile.sustained_bandwidth_gbps = profile.triad_bandwidth_gbps;
  }
  ScanNumberField(text, "calibration_seconds", &profile.calibration_seconds);
  const std::size_t created = text.find("\"created_utc\"");
  if (created != std::string::npos) {
    const std::size_t open = text.find('"', created + 13 + 1);
    const std::size_t close =
        open == std::string::npos ? std::string::npos : text.find('"', open + 1);
    if (close != std::string::npos) {
      profile.created_utc = text.substr(open + 1, close - open - 1);
    }
  }
  profile.valid = std::isfinite(profile.scalar_peak_gops) &&
                  profile.scalar_peak_gops > 0.0 &&
                  std::isfinite(profile.vector_peak_gops) &&
                  profile.vector_peak_gops > 0.0 &&
                  std::isfinite(profile.triad_bandwidth_gbps) &&
                  profile.triad_bandwidth_gbps > 0.0 &&
                  std::isfinite(profile.sustained_bandwidth_gbps) &&
                  profile.sustained_bandwidth_gbps > 0.0;
  return profile;
}

}  // namespace robustify::perfmodel
