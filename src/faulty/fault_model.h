// FaultModel: the campaign-sweepable description of *how* the stochastic
// processor corrupts, separated from *how often* (the fault rate).
//
// The paper's evaluation fixes a single model — one transient single-bit
// upset per corrupted op — and explicitly leaves other silicon failure
// modes to future work.  Real voltage-overscaled hardware also exhibits
// stuck-at bits (a latch that holds its value for many cycles), multi-bit
// bursts (adjacent datapath lines failing together), and intermittent
// clusters (a marginal path that degrades for a short window).  FaultModel
// describes one such temporal behavior plus an op-class mask saying which
// kinds of routed operations can fail: arithmetic results, comparison
// predicates, and (new) memory loads of vector/matrix elements.
//
// Semantics (all models share the scheduled fault stream of the configured
// rate; the temporal model decides what a scheduled fault *does*):
//
//  * kTransient  — today's locked-in default: flip one sampled bit of the
//    faulting op's result.  Byte-identical to the pre-model injector.
//  * kStuckAt    — the scheduled fault samples a bit position, a stuck
//    value (0 or 1), and a duration D ~ Geometric(1/stuck_mean_ops); for
//    the next D routed ops the bit is forced in every arithmetic/load
//    result (comparisons have no result word and pass through).  While the
//    window is live the injector reports CleanRun() == 0, so block kernels
//    degrade to the per-scalar boundary path and stay bit-identical to
//    per-scalar code.
//  * kBurst      — the scheduled fault flips k adjacent bits starting at
//    the sampled position, k ~ Uniform{1..burst_width_max} (clamped at the
//    word edge).
//  * kIntermittent — the scheduled fault flips one sampled bit and opens a
//    window of W ~ Geometric(1/window_mean_ops) routed ops during which
//    every op additionally faults with probability window_rate (each an
//    independent single-bit flip).  CleanRun() is 0 while the window is
//    open, for the same bit-identity reason as stuck-at.
//
// The op-class mask thins the scheduled stream per class: a scheduled
// fault landing on an op whose class is masked out re-arms the schedule
// without corrupting (and without counting a fault), so each enabled class
// independently sees the configured per-op rate and a disabled class sees
// zero.  Memory loads are only routed through the injector at all when
// kOpClassMemory is enabled — the default op stream is unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "faulty/lfsr.h"

namespace robustify::faulty {

enum class Temporal {
  kTransient,     // single-bit upset per scheduled fault (the default)
  kStuckAt,       // sampled bit sticks at 0/1 for a sampled duration
  kBurst,         // k adjacent bits flip, k sampled per fault
  kIntermittent,  // a fault opens a short high-rate window
};

// Op-class mask bits.  The historical injector routes arithmetic results
// and comparison predicates; memory-load corruption is opt-in.
inline constexpr unsigned kOpClassArith = 1u;
inline constexpr unsigned kOpClassCompare = 2u;
inline constexpr unsigned kOpClassMemory = 4u;
inline constexpr unsigned kOpClassDefault = kOpClassArith | kOpClassCompare;
inline constexpr unsigned kOpClassAll =
    kOpClassArith | kOpClassCompare | kOpClassMemory;

struct FaultModel {
  Temporal temporal = Temporal::kTransient;
  unsigned op_classes = kOpClassDefault;

  // kStuckAt: mean of the geometric stuck-window duration, in routed ops.
  double stuck_mean_ops = 256.0;
  // kBurst: widths are Uniform{1 .. burst_width_max}.
  int burst_width_max = 4;
  // kIntermittent: mean window length in routed ops, and the per-op fault
  // probability while the window is open.
  double window_mean_ops = 64.0;
  double window_rate = 0.25;
};

// True when `model` is behaviorally the historical default: transient
// temporal model, arithmetic + comparison classes.  The parameter fields
// are ignored — no other temporal model reads them.
bool IsDefaultModel(const FaultModel& model);

// Name/parse pair for the temporal axis ("transient", "stuck", "burst",
// "intermittent").  Parse returns nullopt for unrecognized text.
const char* TemporalName(Temporal temporal);
std::optional<Temporal> ParseTemporal(const std::string& text);

// Name/parse pair for an op-class mask: comma-joined "arith,cmp,mem"
// subsets.  Parse throws std::runtime_error on unknown class names or an
// empty mask.
std::string OpClassesName(unsigned op_classes);
unsigned ParseOpClasses(const std::string& text);

// ---- per-fault samplers -----------------------------------------------------
//
// Exposed so the statistical gates (tests/test_statistical.cpp) can hold
// the sampled laws to chi-square criteria against the exact distributions
// the injector draws from.

// D ~ Geometric on {1, 2, ...} with P(D = d) = p (1-p)^(d-1), p = 1/mean
// (mean <= 1 degenerates to the constant 1).
std::uint64_t SampleStuckDuration(double mean_ops, Lfsr& rng);

// k ~ Uniform{1 .. width_max} via a 32-bit multiply-shift (bias 2^-32).
int SampleBurstWidth(int width_max, Lfsr& rng);

// W ~ Geometric on {1, 2, ...} with mean window_mean_ops, same law as
// SampleStuckDuration.
std::uint64_t SampleWindowLength(double mean_ops, Lfsr& rng);

}  // namespace robustify::faulty
