// Block-faulty BLAS: the kernels under the solvers.
//
// Each kernel executes the same IEEE-754 operation sequence a templated
// faulty::Real loop would, but without routing ops through the injector one
// at a time.  It asks the thread's FaultInjector how many ops of the
// deterministic gap schedule are guaranteed clean
// (FaultInjector::CleanRun) and executes that many whole elements as a
// tight loop over raw doubles — no per-op countdown, no thread-local probe,
// free to auto-vectorize.  Past the clean run it takes the faults of the
// next window (at most kMaskWindowOps ops) up front
// (FaultInjector::ScheduleFaults) and applies them as data: a second
// instantiation of the same loop body XORs each op result with its
// scheduled mask (zero, or the one flipped bit).  At realistic fault rates
// (mean gap 1e3..1e7 ops) a whole kernel is one clean run; at rate 0.1 a
// window holds ~100 faults and still costs no branch per fault.
//
// Non-default fault models and the per-op oracle injector have no schedule
// to hand out; under them a kernel steps the element holding each fault
// through per-scalar Execute (a third instantiation of the body).
//
// Fault-stream contract: for a fixed (seed, rate, strategy) every kernel
// consumes the injector's gap/bit RNG streams in exactly the order the
// per-scalar faulty::Real code it replaces does, and the clean values are
// bit-identical (each kernel documents its per-element op sequence; the
// build pins -ffp-contract=off so a bulk loop never fuses a mul+add the
// scalar path rounds separately).  tests/test_block_engine.cpp holds every
// kernel to bitwise equivalence against the scalar engine, across mask
// window edges.
//
// With no injector active the kernels are plain clean loops, so the clean
// oracle path benefits too.  Callers dispatch here only for faulty::Real
// data (see the linalg vector/matrix headers); `double` math never touches
// the injector in either engine.
//
// Strides are in elements; kernels with stride parameters take 1 for the
// contiguous fast path (column access in the row-major direct solvers uses
// stride = cols).  Unless noted, in/out arrays must not overlap (read-only
// arguments may alias each other, e.g. Dot(x, x)).
#pragma once

#include <cstddef>
#include <cstdint>

namespace robustify::linalg::blas {

// Ops per fault-mask window: the most faults one scheduling pass hands a
// kernel, and the size of the per-thread mask scratch.
inline constexpr std::uint64_t kMaskWindowOps = 1024;

// acc += x.y          per element: mul, add.
double DotAcc(std::size_t n, double acc, const double* x, std::ptrdiff_t incx,
              const double* y, std::ptrdiff_t incy);

// acc -= x.y          per element: mul, sub.
double DotAccNeg(std::size_t n, double acc, const double* x, std::ptrdiff_t incx,
                 const double* y, std::ptrdiff_t incy);

// y += alpha * x      per element: mul, add.
void Axpy(std::size_t n, double alpha, const double* x, std::ptrdiff_t incx,
          double* y, std::ptrdiff_t incy);

// y -= alpha * x      per element: mul, sub.
void Axmy(std::size_t n, double alpha, const double* x, std::ptrdiff_t incx,
          double* y, std::ptrdiff_t incy);

// x *= alpha          per element: mul.
void Scal(std::size_t n, double alpha, double* x);

// x /= divisor        per element: div.
void DivScal(std::size_t n, double divisor, double* x);

// y -= x              per element: sub.
void Sub(std::size_t n, const double* x, double* y);

// p = s + beta * p    per element: mul, add.
void Xpby(std::size_t n, const double* s, double beta, double* p);

// sqrt(x.x)           per element: mul, add; plus one final sqrt op.
double Nrm2(std::size_t n, const double* x);

// y = A x (A row-major m x n)      per row: DotAcc(0, row, x).
// y is zeroed by reliable stores first.
void MatVecInto(std::size_t m, std::size_t n, const double* a, const double* x,
                double* y);

// y = A^T x (A row-major m x n); y is zeroed by reliable stores first.
// Per row: Axpy(x[row], a_row, y).
void MatTVecInto(std::size_t m, std::size_t n, const double* a, const double* x,
                 double* y);

// acc += sum (ax[i] - b[i])^2      per element: sub, mul, add.
// The fused least-squares objective readout (0.5 * is the caller's op).
double ResidualSsqAcc(std::size_t n, double acc, const double* ax, const double* b);

// y[i] -= (s1 * s2) * x[i]         per element: mul, mul, sub.
// The SVM hinge-gradient row update, with the scale product recomputed per
// element exactly as the templated loop does.
void SubScaled2(std::size_t n, double s1, double s2, const double* x, double* y);

// One-sided Jacobi column rotation: (x, y) <- (c x - s y, s x + c y).
// Per element: mul, mul, mul, mul, sub, add — the canonical order the
// templated rotation in linalg/lsq.h is written in.
void Rot(std::size_t n, double* x, std::ptrdiff_t incx, double* y, std::ptrdiff_t incy,
         double c, double s);

// Fused Jacobi pre-rotation column moments: app += x.x, aqq += y.y,
// apq += x.y in one pass.  Per element: mul, add, mul, add, mul, add.
void JacobiDots(std::size_t n, const double* x, std::ptrdiff_t incx, const double* y,
                std::ptrdiff_t incy, double* app, double* aqq, double* apq);

// ---- IIR variational-form kernels (apps/iir_app.h) -------------------------
//
// Residual of the banded recursion at sample t (taps a[0..na-1]):
//   r_t = (y[t] - f[t]) + sum_{k=1..min(na,t)} a[k-1] * y[t-k]
// per element: sub, then (mul, add) per tap in range.

// acc += sum_t r_t^2   per element: residual ops, then mul, add.
double IirValueAcc(std::size_t n, std::size_t na, const double* a, const double* y,
                   const double* f, double acc);

// r[t] = r_t for every t.
void IirResidualInto(std::size_t n, std::size_t na, const double* a, const double* y,
                     const double* f, double* r);

// g[s] = r[s] + sum_{k=1..na, s+k<n} a[k-1] * r[s+k]
// per element: (mul, add) per tap in range (the leading r[s] is a copy).
void IirGradientInto(std::size_t n, std::size_t na, const double* a, const double* r,
                     double* g);

}  // namespace robustify::linalg::blas
