// The per-scalar engine oracle: a faulty scalar routed to the production
// injector, but never to the block kernels.
//
// ScalarReal sends every op through faulty::Execute / ExecuteComparison
// (and routed loads through faulty::ExecuteLoad) exactly as faulty::Real
// does, under the same WithFaultyFpu scope and the same FaultInjector.
// The only difference is the kernel dispatch: Real data runs the linalg
// kernels in bulk (src/linalg/faulty_blas.h), ScalarReal data runs the
// templated per-scalar loops.  Both must consume the fault stream at the
// same op positions and produce bit-identical results, so a solve on
// ScalarReal is the reference every block kernel is held to
// (tests/test_block_engine.cpp, test_fault_model.cpp).
#pragma once

#include "faulty/fault_injector.h"
#include "faulty_scalar.h"

namespace robustify::oracle {

struct InjectorFpu {
  static double Execute(double v) { return faulty::Execute(v); }
  static bool ExecuteComparison(bool v) { return faulty::ExecuteComparison(v); }
};

using ScalarReal = FaultyScalar<InjectorFpu>;

}  // namespace robustify::oracle
