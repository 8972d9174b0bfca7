// --metrics JSON export: the merged counter/histogram snapshot plus
// provenance, as one queryable file.
//
// Shape:
//   {
//     "bench": "...", "threads": N,
//     "provenance": {"git_sha": "...", "compiler": "...", ...},
//     "telemetry": "enabled" | "compiled-out",
//     "counters": {"injector.faults": 123, ...},          // nonzero only
//     "histograms": {"injector.clean_run":
//         {"total": N, "buckets": [[lower_bound, count], ...]}}
//   }
#pragma once

#include <string>

#include "telemetry/telemetry.h"

namespace robustify::telemetry {

struct MetricsContext {
  std::string bench;
  int threads = 0;
};

// Snapshots the registry and writes the JSON.  Throws std::runtime_error
// when the file cannot be written.  With telemetry compiled out the file is
// still written (provenance stays useful) with empty counter maps and
// "telemetry": "compiled-out".
void WriteMetricsJson(const std::string& path, const MetricsContext& context);

// The JSON helpers every writer in the tree shares.  JsonEscape returns `s`
// as JSON string contents: quotes, backslashes and every control character
// escaped.  ProvenanceJson returns the build-provenance block (Provenance())
// as one JSON object: {"git_sha": "...", ..., "build_type": "..."}.
std::string JsonEscape(const std::string& s);
std::string ProvenanceJson();

}  // namespace robustify::telemetry
