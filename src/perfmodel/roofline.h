// Roofline placement: measured kernel throughput against what the machine
// allows.
//
// For each faulty-BLAS kernel family the analytic table below records the
// clean-path flops and streamed bytes per element (doubles; counts match
// the per-element op sequences documented in linalg/faulty_blas.h, with
// -ffp-contract=off a mul+add is 2 ops there and in the calibration
// probes).  Arithmetic intensity AI = flops / bytes then pins the kernel's
// ceiling on the machine profile (perfmodel/calibrate.h):
//
//   ceiling = min(vector peak, AI * sustained bandwidth)   [Gops/s]
//
// and efficiency = measured / ceiling — the fraction of what the hardware
// allows that the kernel actually achieves.  Unlike raw Mops/s, efficiency
// is comparable across hosts, which is what makes it a CI-gateable number
// (tools/perf_diff.py --efficiency-threshold).
//
// Byte counts assume DRAM-resident operands (bench_roofline sizes its
// working sets accordingly).  Matrix kernels count only the streamed
// matrix (the vectors stay cache-resident); cache-resident sweeps run
// faster than the DRAM ceiling — placement is only meaningful at the sizes
// the bench measures.
#pragma once

#include <string>
#include <vector>

#include "perfmodel/calibrate.h"

namespace robustify::perfmodel {

struct KernelTraits {
  const char* family = "";          // "dot", "axpy", ... (perf section name)
  double flops_per_element = 0.0;   // clean-path FP ops per element
  double bytes_per_element = 0.0;   // streamed bytes per element (doubles)

  double arithmetic_intensity() const {
    return bytes_per_element > 0.0 ? flops_per_element / bytes_per_element
                                   : 0.0;
  }
};

// One row per faulty-BLAS kernel family (dot/axpy/matvec/residual/rot and
// the rest of linalg/faulty_blas.h).  Fixed order, stable names.
const std::vector<KernelTraits>& KernelFamilyTable();

// nullptr when `family` is not in the table.
const KernelTraits* FindKernelTraits(const std::string& family);

struct RooflinePlacement {
  bool valid = false;                // profile valid and traits well-formed
  double arithmetic_intensity = 0.0; // flops per streamed byte
  double ceiling_gops = 0.0;         // min(compute peak, AI * bandwidth)
  double efficiency = 0.0;           // measured / ceiling
  bool memory_bound = false;         // bandwidth roof below the compute roof
};

// Places one kernel's measured clean-path throughput (Gops/s) under the
// profile's ceilings.  `use_vector_peak` selects the block kernels'
// compute roof (default) vs. the per-scalar loops'.
RooflinePlacement PlaceKernel(const KernelTraits& traits, double measured_gops,
                              const MachineProfile& profile,
                              bool use_vector_peak = true);

}  // namespace robustify::perfmodel
