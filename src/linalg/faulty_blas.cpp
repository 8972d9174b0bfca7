#include "linalg/faulty_blas.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "faulty/fault_injector.h"

#if defined(__GNUC__) || defined(__clang__)
#define BLAS_RESTRICT __restrict__
#else
#define BLAS_RESTRICT
#endif

namespace robustify::linalg::blas {

namespace {

using faulty::FaultInjector;

// How a kernel body passes each op result through the injector.  Every
// family writes its loop body once, generic in this policy, and
// RunKernelDyn below instantiates it three ways.  `op` is the op's offset from the first
// op of the run the body was called for.
//
//  * Clean  — the raw result: no injector, or a run the schedule keeps clean.
//  * Masked — result ^ mask[op], the window's faults applied as data.
//  * PerOp  — per-scalar Execute: non-default models and the per-op oracle.
struct Clean {
  double operator()(double v, std::size_t) const { return v; }
};

struct Masked {
  const std::uint64_t* mask;
  double operator()(double v, std::size_t op) const {
#if defined(__SSE2__)
    // XOR inside the FP register file: a round trip through a general
    // register would put two domain crossings on every accumulator chain.
    const __m128d m = _mm_castsi128_pd(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + op)));
    return _mm_cvtsd_f64(_mm_xor_pd(_mm_set1_pd(v), m));
#else
    std::uint64_t word;
    std::memcpy(&word, &v, sizeof(word));
    word ^= mask[op];
    std::memcpy(&v, &word, sizeof(v));
    return v;
#endif
  }
};

struct PerOp {
  FaultInjector* inj;
  double operator()(double v, std::size_t) const { return inj->Execute(v); }
};

// One window's fault masks, per thread and pre-sized so the masked path
// never allocates.  All zero between windows: each window re-zeroes the
// slots it scattered into before the next one schedules.
thread_local std::uint64_t tls_masks[kMaskWindowOps];

// Runs the whole-element clean prefix the schedule guarantees, starting at
// element *i; returns false when that finishes the call.
template <class Body>
inline bool RunCleanPrefix(FaultInjector* inj, std::size_t n, std::uint64_t ops,
                           const Body& body, std::size_t* i) {
  const std::uint64_t fit = inj->CleanRun() / ops;
  const std::size_t left = n - *i;
  const std::size_t chunk = fit < left ? static_cast<std::size_t>(fit) : left;
  if (chunk != 0) {
    body(*i, *i + chunk, Clean{});
    inj->ConsumeClean(static_cast<std::uint64_t>(chunk) * ops);
    *i += chunk;
  }
  return *i < n;
}

// Faults as data.  After each clean prefix the next fault lies in element
// i; schedule the window of elements from there, scatter each fault's
// 1 << bit into the masks, and run the window through the Masked body up
// to the last faulting element and through the Clean one after it.  No
// injector call and no per-fault branch inside any loop.
template <class Body>
void RunMasked(FaultInjector* inj, std::size_t n, std::uint64_t ops, const Body& body) {
  std::uint64_t* masks = tls_masks;
  const std::size_t window = static_cast<std::size_t>(kMaskWindowOps / ops);
  std::size_t i = 0;
  while (RunCleanPrefix(inj, n, ops, body, &i)) {
    const std::size_t w = n - i < window ? n - i : window;
    std::uint64_t last = 0;  // op offset of the window's last fault
    inj->ScheduleFaults(w * ops, [&](std::uint64_t at, int bit) {
      masks[at] = 1ull << bit;
      last = at;
    });
    const std::size_t masked = static_cast<std::size_t>(last / ops) + 1;
    body(i, i + masked, Masked{masks});
    if (masked < w) body(i + masked, i + w, Clean{});
    std::memset(masks, 0, (last + 1) * sizeof(*masks));
    i += w;
  }
}

// The chunk/boundary path: clean prefixes in bulk, then the element holding
// the fault op by op through Execute.  In per-op oracle mode CleanRun() is
// always 0, so every element steps and the oracle's RNG stream is consumed
// op by op; a live sticky window does the same.
template <class Body>
void RunPerOp(FaultInjector* inj, std::size_t n, std::uint64_t ops, const Body& body) {
  std::size_t i = 0;
  while (RunCleanPrefix(inj, n, ops, body, &i)) {
    body(i, i + 1, PerOp{inj});
    ++i;
  }
}

// Drives one kernel over `n` elements of `ops` faulty ops each.  `body(lo,
// hi, fx)` executes elements [lo, hi), passing op k of element i through
// fx(result, (i - lo) * ops + k).  With no injector, or when the clean run
// covers the call, the whole kernel is one Clean run.
template <class Body>
inline void RunKernelDyn(std::size_t n, std::uint64_t ops, const Body& body) {
  FaultInjector* inj = faulty::detail::tls_injector;
  const std::uint64_t total = static_cast<std::uint64_t>(n) * ops;
  if (inj == nullptr || inj->CleanRun() >= total) {
    body(std::size_t{0}, n, Clean{});
    if (inj != nullptr) inj->ConsumeClean(total);
    return;
  }
  if (inj->SchedulesFaults() && ops <= kMaskWindowOps) {
    RunMasked(inj, n, ops, body);
  } else {
    RunPerOp(inj, n, ops, body);
  }
}

// Compile-time op count: the per-chunk and per-window divisions fold to
// shifts or reciprocal multiplies.
template <std::uint64_t kOps, class Body>
inline void RunKernel(std::size_t n, const Body& body) {
  RunKernelDyn(n, kOps, body);
}

// One faulty op outside any element loop (e.g. the final sqrt of Nrm2).
inline double OneOp(double v) {
  FaultInjector* inj = faulty::detail::tls_injector;
  return inj != nullptr ? inj->Execute(v) : v;
}

// kContig pins the strides to compile-time 1 so the contiguous entry points
// vectorize; the strided instantiation keeps runtime strides (column access
// in the row-major direct solvers).
template <bool kContig>
double DotAccImpl(std::size_t n, double acc, const double* BLAS_RESTRICT x,
                  std::ptrdiff_t incx, const double* BLAS_RESTRICT y,
                  std::ptrdiff_t incy) {
  const std::ptrdiff_t sx = kContig ? 1 : incx;
  const std::ptrdiff_t sy = kContig ? 1 : incy;
  RunKernel<2>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    double a = acc;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t op = 2 * (i - lo);
      const double t = fx(x[static_cast<std::ptrdiff_t>(i) * sx] *
                              y[static_cast<std::ptrdiff_t>(i) * sy],
                          op);
      a = fx(a + t, op + 1);
    }
    acc = a;
  });
  return acc;
}

template <bool kContig>
double DotAccNegImpl(std::size_t n, double acc, const double* BLAS_RESTRICT x,
                     std::ptrdiff_t incx, const double* BLAS_RESTRICT y,
                     std::ptrdiff_t incy) {
  const std::ptrdiff_t sx = kContig ? 1 : incx;
  const std::ptrdiff_t sy = kContig ? 1 : incy;
  RunKernel<2>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    double a = acc;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t op = 2 * (i - lo);
      const double t = fx(x[static_cast<std::ptrdiff_t>(i) * sx] *
                              y[static_cast<std::ptrdiff_t>(i) * sy],
                          op);
      a = fx(a - t, op + 1);
    }
    acc = a;
  });
  return acc;
}

template <bool kContig>
void AxpyImpl(std::size_t n, double alpha, const double* BLAS_RESTRICT x,
              std::ptrdiff_t incx, double* BLAS_RESTRICT y, std::ptrdiff_t incy) {
  const std::ptrdiff_t sx = kContig ? 1 : incx;
  const std::ptrdiff_t sy = kContig ? 1 : incy;
  RunKernel<2>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t op = 2 * (i - lo);
      const double t = fx(alpha * x[static_cast<std::ptrdiff_t>(i) * sx], op);
      double& yi = y[static_cast<std::ptrdiff_t>(i) * sy];
      yi = fx(yi + t, op + 1);
    }
  });
}

template <bool kContig>
void AxmyImpl(std::size_t n, double alpha, const double* BLAS_RESTRICT x,
              std::ptrdiff_t incx, double* BLAS_RESTRICT y, std::ptrdiff_t incy) {
  const std::ptrdiff_t sx = kContig ? 1 : incx;
  const std::ptrdiff_t sy = kContig ? 1 : incy;
  RunKernel<2>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t op = 2 * (i - lo);
      const double t = fx(alpha * x[static_cast<std::ptrdiff_t>(i) * sx], op);
      double& yi = y[static_cast<std::ptrdiff_t>(i) * sy];
      yi = fx(yi - t, op + 1);
    }
  });
}

}  // namespace

double DotAcc(std::size_t n, double acc, const double* x, std::ptrdiff_t incx,
              const double* y, std::ptrdiff_t incy) {
  if (incx == 1 && incy == 1) return DotAccImpl<true>(n, acc, x, 1, y, 1);
  return DotAccImpl<false>(n, acc, x, incx, y, incy);
}

double DotAccNeg(std::size_t n, double acc, const double* x, std::ptrdiff_t incx,
                 const double* y, std::ptrdiff_t incy) {
  if (incx == 1 && incy == 1) return DotAccNegImpl<true>(n, acc, x, 1, y, 1);
  return DotAccNegImpl<false>(n, acc, x, incx, y, incy);
}

void Axpy(std::size_t n, double alpha, const double* x, std::ptrdiff_t incx, double* y,
          std::ptrdiff_t incy) {
  if (incx == 1 && incy == 1) {
    AxpyImpl<true>(n, alpha, x, 1, y, 1);
  } else {
    AxpyImpl<false>(n, alpha, x, incx, y, incy);
  }
}

void Axmy(std::size_t n, double alpha, const double* x, std::ptrdiff_t incx, double* y,
          std::ptrdiff_t incy) {
  if (incx == 1 && incy == 1) {
    AxmyImpl<true>(n, alpha, x, 1, y, 1);
  } else {
    AxmyImpl<false>(n, alpha, x, incx, y, incy);
  }
}

void Scal(std::size_t n, double alpha, double* x) {
  RunKernel<1>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    double* BLAS_RESTRICT xp = x;
    for (std::size_t i = lo; i < hi; ++i) xp[i] = fx(xp[i] * alpha, i - lo);
  });
}

void DivScal(std::size_t n, double divisor, double* x) {
  RunKernel<1>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    double* BLAS_RESTRICT xp = x;
    for (std::size_t i = lo; i < hi; ++i) xp[i] = fx(xp[i] / divisor, i - lo);
  });
}

void Sub(std::size_t n, const double* x, double* y) {
  RunKernel<1>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    const double* BLAS_RESTRICT xp = x;
    double* BLAS_RESTRICT yp = y;
    for (std::size_t i = lo; i < hi; ++i) yp[i] = fx(yp[i] - xp[i], i - lo);
  });
}

void Xpby(std::size_t n, const double* s, double beta, double* p) {
  RunKernel<2>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    const double* BLAS_RESTRICT sp = s;
    double* BLAS_RESTRICT pp = p;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t op = 2 * (i - lo);
      const double t = fx(beta * pp[i], op);
      pp[i] = fx(sp[i] + t, op + 1);
    }
  });
}

double Nrm2(std::size_t n, const double* x) {
  return OneOp(std::sqrt(DotAcc(n, 0.0, x, 1, x, 1)));
}

// The matrix kernels run over the m*n (row, column) elements flattened in
// row-major order, so a run — and a mask window — may start or end mid-row.
// y is zeroed by reliable stores first; MatVec keeps each row's running sum
// in y[r], which is how a run that starts mid-row resumes it.
void MatVecInto(std::size_t m, std::size_t n, const double* a, const double* x,
                double* y) {
  for (std::size_t r = 0; r < m; ++r) y[r] = 0.0;
  if (n == 0) return;
  RunKernel<2>(m * n, [&](std::size_t lo, std::size_t hi, auto fx) {
    const double* BLAS_RESTRICT xp = x;
    std::size_t r = lo / n;
    std::size_t j = lo - r * n;
    std::size_t op = 0;
    for (std::size_t left = hi - lo; left != 0; ++r, j = 0) {
      const std::size_t end = n - j < left ? n : j + left;
      left -= end - j;
      const double* BLAS_RESTRICT row = a + r * n;
      double acc = y[r];
      for (; j < end; ++j, op += 2) {
        const double t = fx(row[j] * xp[j], op);
        acc = fx(acc + t, op + 1);
      }
      y[r] = acc;
    }
  });
}

void MatTVecInto(std::size_t m, std::size_t n, const double* a, const double* x,
                 double* y) {
  for (std::size_t j = 0; j < n; ++j) y[j] = 0.0;
  if (n == 0) return;
  RunKernel<2>(m * n, [&](std::size_t lo, std::size_t hi, auto fx) {
    double* BLAS_RESTRICT yp = y;
    std::size_t r = lo / n;
    std::size_t j = lo - r * n;
    std::size_t op = 0;
    for (std::size_t left = hi - lo; left != 0; ++r, j = 0) {
      const std::size_t end = n - j < left ? n : j + left;
      left -= end - j;
      const double* BLAS_RESTRICT row = a + r * n;
      const double alpha = x[r];
      for (; j < end; ++j, op += 2) {
        const double t = fx(row[j] * alpha, op);
        yp[j] = fx(yp[j] + t, op + 1);
      }
    }
  });
}

double ResidualSsqAcc(std::size_t n, double acc, const double* ax, const double* b) {
  RunKernel<3>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    const double* BLAS_RESTRICT axp = ax;
    const double* BLAS_RESTRICT bp = b;
    double a = acc;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t op = 3 * (i - lo);
      const double r = fx(axp[i] - bp[i], op);
      const double sq = fx(r * r, op + 1);
      a = fx(a + sq, op + 2);
    }
    acc = a;
  });
  return acc;
}

void SubScaled2(std::size_t n, double s1, double s2, const double* x, double* y) {
  RunKernel<3>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    const double* BLAS_RESTRICT xp = x;
    double* BLAS_RESTRICT yp = y;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t op = 3 * (i - lo);
      const double t1 = fx(s1 * s2, op);
      const double t2 = fx(t1 * xp[i], op + 1);
      yp[i] = fx(yp[i] - t2, op + 2);
    }
  });
}

void Rot(std::size_t n, double* x, std::ptrdiff_t incx, double* y, std::ptrdiff_t incy,
         double c, double s) {
  RunKernel<6>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t op = 6 * (i - lo);
      double& xi = x[static_cast<std::ptrdiff_t>(i) * incx];
      double& yi = y[static_cast<std::ptrdiff_t>(i) * incy];
      const double tp = fx(c * xi, op);
      const double tq = fx(s * yi, op + 1);
      const double up = fx(s * xi, op + 2);
      const double uq = fx(c * yi, op + 3);
      xi = fx(tp - tq, op + 4);
      yi = fx(up + uq, op + 5);
    }
  });
}

void JacobiDots(std::size_t n, const double* x, std::ptrdiff_t incx, const double* y,
                std::ptrdiff_t incy, double* app, double* aqq, double* apq) {
  double vpp = *app, vqq = *aqq, vpq = *apq;
  RunKernel<6>(n, [&](std::size_t lo, std::size_t hi, auto fx) {
    double app_a = vpp, aqq_a = vqq, apq_a = vpq;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t op = 6 * (i - lo);
      const double xi = x[static_cast<std::ptrdiff_t>(i) * incx];
      const double yi = y[static_cast<std::ptrdiff_t>(i) * incy];
      const double txx = fx(xi * xi, op);
      app_a = fx(app_a + txx, op + 1);
      const double tyy = fx(yi * yi, op + 2);
      aqq_a = fx(aqq_a + tyy, op + 3);
      const double txy = fx(xi * yi, op + 4);
      apq_a = fx(apq_a + txy, op + 5);
    }
    vpp = app_a;
    vqq = aqq_a;
    vpq = apq_a;
  });
  *app = vpp;
  *aqq = vqq;
  *apq = vpq;
}

// ---- IIR kernels -----------------------------------------------------------
//
// Per-element faulty op counts (taps in range = min(na, t) at sample t):
//   residual: 1 + 2 * taps      value: residual + 2      gradient: 2 * taps'
// The first min(na, n) samples ramp the count up one tap at a time, so each
// runs as its own one-element kernel call; the steady region runs as one
// call with a fixed count.  Gradient ramps *down* at the tail instead
// (taps' = min(na, n-1-s)).

namespace {

// The residual of sample t with `taps` taps in range, its ops passed
// through fx starting at offset *op (advanced past them).
template <class Fx>
inline double IirResidual(std::size_t t, std::size_t taps, const double* a,
                          const double* y, const double* f, Fx fx, std::size_t* op) {
  double r = fx(y[t] - f[t], (*op)++);
  for (std::size_t k = 1; k <= taps; ++k) {
    const double m = fx(a[k - 1] * y[t - k], (*op)++);
    r = fx(r + m, (*op)++);
  }
  return r;
}

// g[s] = r[s] + sum_{k=1..taps} a[k-1] * r[s+k], ops from offset *op.
template <class Fx>
inline void IirGradientElem(std::size_t s, std::size_t taps, const double* a,
                            const double* r, double* g, Fx fx, std::size_t* op) {
  double acc = r[s];
  for (std::size_t k = 1; k <= taps; ++k) {
    const double m = fx(a[k - 1] * r[s + k], (*op)++);
    acc = fx(acc + m, (*op)++);
  }
  g[s] = acc;
}

}  // namespace

double IirValueAcc(std::size_t n, std::size_t na, const double* a, const double* y,
                   const double* f, double acc) {
  // Samples [first, first + count) with `taps` taps each: 3 + 2 * taps ops.
  const auto run = [&](std::size_t first, std::size_t count, std::size_t taps) {
    RunKernelDyn(count, 3 + 2 * static_cast<std::uint64_t>(taps),
                 [&](std::size_t lo, std::size_t hi, auto fx) {
                   double acc_a = acc;
                   std::size_t op = 0;
                   for (std::size_t i = lo; i < hi; ++i) {
                     const double r = IirResidual(first + i, taps, a, y, f, fx, &op);
                     const double sq = fx(r * r, op++);
                     acc_a = fx(acc_a + sq, op++);
                   }
                   acc = acc_a;
                 });
  };
  const std::size_t ramp = na < n ? na : n;
  for (std::size_t t = 0; t < ramp; ++t) run(t, 1, t);
  run(ramp, n - ramp, na);
  return acc;
}

void IirResidualInto(std::size_t n, std::size_t na, const double* a, const double* y,
                     const double* f, double* r) {
  const auto run = [&](std::size_t first, std::size_t count, std::size_t taps) {
    RunKernelDyn(count, 1 + 2 * static_cast<std::uint64_t>(taps),
                 [&](std::size_t lo, std::size_t hi, auto fx) {
                   std::size_t op = 0;
                   for (std::size_t i = lo; i < hi; ++i) {
                     r[first + i] = IirResidual(first + i, taps, a, y, f, fx, &op);
                   }
                 });
  };
  const std::size_t ramp = na < n ? na : n;
  for (std::size_t t = 0; t < ramp; ++t) run(t, 1, t);
  run(ramp, n - ramp, na);
}

void IirGradientInto(std::size_t n, std::size_t na, const double* a, const double* r,
                     double* g) {
  if (n == 0) return;
  if (na == 0) {
    for (std::size_t s = 0; s < n; ++s) g[s] = r[s];  // copies: no faulty op
    return;
  }
  const auto run = [&](std::size_t first, std::size_t count, std::size_t taps) {
    RunKernelDyn(count, 2 * static_cast<std::uint64_t>(taps),
                 [&](std::size_t lo, std::size_t hi, auto fx) {
                   std::size_t op = 0;
                   for (std::size_t i = lo; i < hi; ++i) {
                     IirGradientElem(first + i, taps, a, r, g, fx, &op);
                   }
                 });
  };
  // Steady region: samples with all na taps in range (s + na <= n - 1).
  const std::size_t steady = n - 1 >= na ? n - na : 0;
  run(0, steady, na);
  // Tail ramp-down: taps in range shrink to zero, one sample per call.
  for (std::size_t s = steady; s < n; ++s) run(s, 1, n - 1 - s);
}

}  // namespace robustify::linalg::blas
