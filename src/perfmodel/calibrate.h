// Machine calibration: what does this host actually allow?
//
// Three microbenchmark probes measure the ceilings the roofline model
// (perfmodel/roofline.h) places kernels against:
//
//   scalar peak   interleaved independent mul+add chains, vectorization
//                 disabled — the per-scalar loops' compute ceiling;
//   vector peak   the same arithmetic auto-vectorized (dual interleaved
//                 Horner chains per element, L1-resident) — the block
//                 kernels' compute ceiling;
//   bandwidth     STREAM-style triad a[i] = b[i] + s*c[i] on buffers far
//                 past the LLC, counting 24 B/element (two reads + one
//                 write, STREAM convention), plus an in-place scale
//                 x[i] *= s (16 B/element, no write-allocate traffic —
//                 the two-stream pattern most faulty-BLAS kernels are).
//                 The better of the two is the memory ceiling: a triad's
//                 uncounted write-allocate stream understates what the
//                 read+modify+write kernels can sustain.
//
// The probes follow the LARM flops.c exemplar (SNIPPETS.md): many
// independent chains so throughput, not latency, is measured — but in
// portable C++ rather than per-ISA asm, compiled exactly like the kernels
// they model (same flags; the build pins -ffp-contract=off, so "mul+add"
// is two rounded ops here and in every kernel — no FMA on either side).
//
// Results are cached as a provenance-stamped machine_profile.json
// (`robustify_cli calibrate`): measurements, not simulation — two runs
// give slightly different numbers, so regenerate per host and keep the
// profile next to the BENCH_*.json it normalizes.  Nothing in the
// simulation reads it; determinism contracts are untouched.
#pragma once

#include <cstddef>
#include <string>

namespace robustify::perfmodel {

struct CalibrationOptions {
  double seconds_per_probe = 0.25;  // minimum measured time per round
  int rounds = 3;                   // best-of-N (max rate survives)
  std::size_t triad_elements = std::size_t{1} << 22;  // 32 MiB per array

  // Short enough for unit tests and CI smoke (noisy, but valid > 0).
  static CalibrationOptions Quick() {
    CalibrationOptions o;
    o.seconds_per_probe = 0.02;
    o.rounds = 1;
    o.triad_elements = std::size_t{1} << 19;
    return o;
  }
};

struct MachineProfile {
  bool valid = false;               // all rates finite and > 0
  double scalar_peak_gops = 0.0;    // scalar mul+add throughput, Gops/s
  double vector_peak_gops = 0.0;    // vectorized mul+add throughput, Gops/s
  double triad_bandwidth_gbps = 0.0;  // 3-stream triad bandwidth, GB/s
  double sustained_bandwidth_gbps = 0.0;  // best stream probe — roofline roof
  double calibration_seconds = 0.0;   // total probe wall time
  std::string created_utc;          // ISO-8601 UTC stamp of the calibration
};

// Runs the three probes on the calling thread (per-core ceilings: the
// sweep scales per worker, so per-kernel efficiency is per-core too).
MachineProfile Calibrate(const CalibrationOptions& options = {});

// Writes the profile as machine_profile.json, stamped with the build
// provenance block (git SHA, compiler, flags).  Throws std::runtime_error
// when the file cannot be written.
void WriteMachineProfile(const std::string& path, const MachineProfile& profile);

// Reads a profile written by WriteMachineProfile.  Returns valid == false
// (never throws) when the file is missing, unparsable, or holds
// non-positive rates.
MachineProfile LoadMachineProfile(const std::string& path);

}  // namespace robustify::perfmodel
