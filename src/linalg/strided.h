// Strided faulty primitives shared by the column-oriented solvers (lsq.h)
// and the normal-equations CG path (opt/cg.h).
//
// Row-major storage: a column walks with stride = cols.  Each primitive
// states its exact per-element faulty-op sequence; the block path dispatches
// to the matching faulty-BLAS kernel, the scalar path is the loop spelled
// out — the two are bit-identical per the engine contract (faulty_blas.h).
#pragma once

#include <cstddef>

#include "linalg/matrix.h"

namespace robustify::linalg::detail {

// acc += sum x.y       per element: mul, add.
template <class T>
T StridedDotAcc(T acc, std::size_t n, const T* x, std::ptrdiff_t incx, const T* y,
                std::ptrdiff_t incy) {
  if (UseBlockKernels<T>()) {
    return T(blas::DotAcc(n, AsDouble(acc), faulty::AsDoubleArray(x), incx,
                          faulty::AsDoubleArray(y), incy));
  }
  for (std::size_t i = 0; i < n; ++i) {
    acc += x[static_cast<std::ptrdiff_t>(i) * incx] *
           y[static_cast<std::ptrdiff_t>(i) * incy];
  }
  return acc;
}

// acc -= sum x.y       per element: mul, sub.
template <class T>
T StridedDotAccNeg(T acc, std::size_t n, const T* x, std::ptrdiff_t incx, const T* y,
                   std::ptrdiff_t incy) {
  if (UseBlockKernels<T>()) {
    return T(blas::DotAccNeg(n, AsDouble(acc), faulty::AsDoubleArray(x), incx,
                             faulty::AsDoubleArray(y), incy));
  }
  for (std::size_t i = 0; i < n; ++i) {
    acc -= x[static_cast<std::ptrdiff_t>(i) * incx] *
           y[static_cast<std::ptrdiff_t>(i) * incy];
  }
  return acc;
}

// y += alpha * x       per element: mul, add.  x and y must not alias.
template <class T>
void StridedAxpy(std::size_t n, const T& alpha, const T* x, std::ptrdiff_t incx, T* y,
                 std::ptrdiff_t incy) {
  if (UseBlockKernels<T>()) {
    blas::Axpy(n, AsDouble(alpha), faulty::AsDoubleArray(x), incx,
               faulty::AsDoubleArray(y), incy);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    y[static_cast<std::ptrdiff_t>(i) * incy] +=
        alpha * x[static_cast<std::ptrdiff_t>(i) * incx];
  }
}

// y -= alpha * x       per element: mul, sub.  x and y must not alias.
template <class T>
void StridedAxmy(std::size_t n, const T& alpha, const T* x, std::ptrdiff_t incx, T* y,
                 std::ptrdiff_t incy) {
  if (UseBlockKernels<T>()) {
    blas::Axmy(n, AsDouble(alpha), faulty::AsDoubleArray(x), incx,
               faulty::AsDoubleArray(y), incy);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    y[static_cast<std::ptrdiff_t>(i) * incy] -=
        alpha * x[static_cast<std::ptrdiff_t>(i) * incx];
  }
}

// Jacobi rotation (x, y) <- (c x - s y, s x + c y).
// Per element: mul, mul, mul, mul, sub, add — spelled out with temporaries
// so the block kernel and the per-scalar loop execute the same op order.
template <class T>
void StridedRot(std::size_t n, T* x, std::ptrdiff_t incx, T* y, std::ptrdiff_t incy,
                const T& c, const T& s) {
  if (UseBlockKernels<T>()) {
    blas::Rot(n, faulty::AsDoubleArray(x), incx, faulty::AsDoubleArray(y), incy,
              AsDouble(c), AsDouble(s));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    T& xi = x[static_cast<std::ptrdiff_t>(i) * incx];
    T& yi = y[static_cast<std::ptrdiff_t>(i) * incy];
    const T tp = c * xi;
    const T tq = s * yi;
    const T up = s * xi;
    const T uq = c * yi;
    xi = tp - tq;
    yi = up + uq;
  }
}

// Fused pre-rotation column moments: app += x.x, aqq += y.y, apq += x.y.
// Per element: mul, add, mul, add, mul, add.
template <class T>
void JacobiColumnDots(std::size_t n, const T* x, std::ptrdiff_t incx, const T* y,
                      std::ptrdiff_t incy, T* app, T* aqq, T* apq) {
  if (UseBlockKernels<T>()) {
    double vpp = AsDouble(*app), vqq = AsDouble(*aqq), vpq = AsDouble(*apq);
    blas::JacobiDots(n, faulty::AsDoubleArray(x), incx, faulty::AsDoubleArray(y), incy,
                     &vpp, &vqq, &vpq);
    *app = T(vpp);
    *aqq = T(vqq);
    *apq = T(vpq);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const T xi = x[static_cast<std::ptrdiff_t>(i) * incx];
    const T yi = y[static_cast<std::ptrdiff_t>(i) * incy];
    *app += xi * xi;
    *aqq += yi * yi;
    *apq += xi * yi;
  }
}

}  // namespace robustify::linalg::detail
