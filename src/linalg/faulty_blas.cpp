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

// a + b with `a` as the add's first operand.  When both operands are NaNs,
// x86 returns the first one's payload; a plain `+` leaves that choice to
// the register allocator, which treats the add as commutative.  The matrix
// kernels pin their chain adds with this (and the lane-wise AddLanes) so
// the order is a property of the source.
#if defined(__SSE2__) && (defined(__GNUC__) || defined(__clang__))
#define BLAS_PINNED_ADDS 1
inline double AddFirst(double a, double b) {
  __asm__("addsd %1, %0" : "+x"(a) : "x"(b));
  return a;
}
#else
inline double AddFirst(double a, double b) { return a + b; }
#endif

// Two independent op chains side by side: one SSE2 register, or a plain
// pair of doubles off SSE2.  Lane 0 is the low half.
#if defined(__SSE2__)
using Lanes = __m128d;
inline Lanes LoadLanes(const double* p) { return _mm_loadu_pd(p); }
inline Lanes PairLanes(double lane0, double lane1) { return _mm_set_pd(lane1, lane0); }
inline Lanes SplatLanes(double v) { return _mm_set1_pd(v); }
inline void StoreLanes(double* p, Lanes v) { _mm_storeu_pd(p, v); }
// Lane-wise AddFirst.
inline Lanes AddLanes(Lanes a, Lanes b) {
#if defined(BLAS_PINNED_ADDS)
  __asm__("addpd %1, %0" : "+x"(a) : "x"(b));
  return a;
#else
  return _mm_add_pd(a, b);
#endif
}
inline Lanes MulLanes(Lanes a, Lanes b) { return _mm_mul_pd(a, b); }
// [a.lane0, b.lane0] and [a.lane1, b.lane1]: a 2x2 transpose.
inline Lanes LowLanes(Lanes a, Lanes b) { return _mm_unpacklo_pd(a, b); }
inline Lanes HighLanes(Lanes a, Lanes b) { return _mm_unpackhi_pd(a, b); }
#else
struct Lanes {
  double lane0, lane1;
};
inline Lanes LoadLanes(const double* p) { return {p[0], p[1]}; }
inline Lanes PairLanes(double lane0, double lane1) { return {lane0, lane1}; }
inline Lanes SplatLanes(double v) { return {v, v}; }
inline void StoreLanes(double* p, Lanes v) {
  p[0] = v.lane0;
  p[1] = v.lane1;
}
inline Lanes AddLanes(Lanes a, Lanes b) { return {a.lane0 + b.lane0, a.lane1 + b.lane1}; }
inline Lanes MulLanes(Lanes a, Lanes b) { return {a.lane0 * b.lane0, a.lane1 * b.lane1}; }
inline Lanes LowLanes(Lanes a, Lanes b) { return {a.lane0, b.lane0}; }
inline Lanes HighLanes(Lanes a, Lanes b) { return {a.lane1, b.lane1}; }
#endif

// How a kernel body passes each op result through the injector.  Every
// family writes its loop body once, generic in this policy, and
// RunKernelDyn below instantiates it three ways.  `op` is the op's offset from the first
// op of the run the body was called for.
//
//  * Clean  — the raw result: no injector, or a run the schedule keeps clean.
//  * Masked — result ^ mask[op], the window's faults applied as data.
//  * PerOp  — per-scalar Execute: non-default models.
//
// Clean and Masked also take two ops at once, one per lane, with each
// lane's own offset (kLanes).  PerOp has no two-lane form: Execute must see
// the ops in the flattened order, so bodies keep their scalar loop for it.
struct Clean {
  static constexpr bool kLanes = true;
  double operator()(double v, std::size_t) const { return v; }
  Lanes operator()(Lanes v, std::size_t, std::size_t) const { return v; }
};

struct Masked {
  static constexpr bool kLanes = true;
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
  Lanes operator()(Lanes v, std::size_t op0, std::size_t op1) const {
#if defined(__SSE2__)
    const __m128i m =
        _mm_unpacklo_epi64(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + op0)),
                           _mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + op1)));
    return _mm_xor_pd(v, _mm_castsi128_pd(m));
#else
    return {(*this)(v.lane0, op0), (*this)(v.lane1, op1)};
#endif
  }
};

struct PerOp {
  static constexpr bool kLanes = false;
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

// The chunk/boundary path of the non-default models: clean prefixes in
// bulk, then the element holding the fault op by op through Execute.  While
// a sticky window is live, CleanRun() is 0, so every element steps op by op.
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

// ---- Matrix kernels ----------------------------------------------------------
//
// MatVec and MatTVec run over the m*n (row, column) elements flattened in
// row-major order, two ops each, so a run — and a mask window — may start
// or end mid-row.  y is zeroed by reliable stores first.  A partial row at
// either end of a run takes the scalar loop, with each chain's running sum
// in y (which is how a run that starts mid-row resumes it).  The whole rows
// in between run their independent chains side by side in lanes: MatVec a
// row's sum per lane, MatTVec a column's.  Each chain adds its terms in the
// flattened order and every op keeps its offset, so the interleaving
// changes neither a value nor which op a mask hits.  Every add keeps the
// operand order the scalar loop always had, pinned with AddFirst: MatVec's
// running sum first, MatTVec's term first (its sum lived in y[j]).

namespace {

// Rows r .. r + 2 * kPairs - 1 of y = A x, whole; `op` is the offset of row
// r's first op.  Lane k of pair p carries row r + 2p + k.  Columns go two at
// a time: each row multiplies its column pair against x's in one register,
// and a 2x2 transpose turns a row pair's products into the terms its two
// chains add next, column j's before column j + 1's.
template <int kPairs, class Fx>
inline void MatVecRowBlock(std::size_t n, const double* BLAS_RESTRICT a,
                           const double* BLAS_RESTRICT x, double* BLAS_RESTRICT y,
                           std::size_t r, std::size_t op, const Fx& fx) {
  const std::size_t row_ops = 2 * n;
  const double* BLAS_RESTRICT row = a + r * n;
  Lanes acc[kPairs];
  for (int p = 0; p < kPairs; ++p) acc[p] = LoadLanes(y + r + 2 * p);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2, op += 4) {
    const Lanes xj = LoadLanes(x + j);
    for (int p = 0; p < kPairs; ++p) {
      const double* BLAS_RESTRICT r0 = row + 2 * p * n + j;
      const std::size_t o0 = op + 2 * p * row_ops;  // element (r + 2p, j)
      const std::size_t o1 = o0 + row_ops;          // element (r + 2p + 1, j)
      const Lanes t0 = fx(MulLanes(LoadLanes(r0), xj), o0, o0 + 2);
      const Lanes t1 = fx(MulLanes(LoadLanes(r0 + n), xj), o1, o1 + 2);
      acc[p] = fx(AddLanes(acc[p], LowLanes(t0, t1)), o0 + 1, o1 + 1);
      acc[p] = fx(AddLanes(acc[p], HighLanes(t0, t1)), o0 + 3, o1 + 3);
    }
  }
  if (j < n) {  // odd last column
    const Lanes xj = SplatLanes(x[j]);
    for (int p = 0; p < kPairs; ++p) {
      const double* BLAS_RESTRICT r0 = row + 2 * p * n + j;
      const std::size_t o0 = op + 2 * p * row_ops;
      const std::size_t o1 = o0 + row_ops;
      const Lanes t = fx(MulLanes(PairLanes(r0[0], r0[n]), xj), o0, o1);
      acc[p] = fx(AddLanes(acc[p], t), o0 + 1, o1 + 1);
    }
  }
  for (int p = 0; p < kPairs; ++p) StoreLanes(y + r + 2 * p, acc[p]);
}

// Columns j .. j + 2 * kPairs - 1 of y = A^T x over whole rows [r0, r1);
// `op` is the offset of element (r0, j)'s first op.  Lane k of pair p
// carries column j + 2p + k.
template <int kPairs, class Fx>
inline void MatTVecColumnBlock(std::size_t n, const double* BLAS_RESTRICT a,
                               const double* BLAS_RESTRICT x, double* BLAS_RESTRICT y,
                               std::size_t j, std::size_t r0, std::size_t r1,
                               std::size_t op, const Fx& fx) {
  Lanes acc[kPairs];
  for (int p = 0; p < kPairs; ++p) acc[p] = LoadLanes(y + j + 2 * p);
  for (std::size_t r = r0; r < r1; ++r, op += 2 * n) {
    const double* BLAS_RESTRICT row = a + r * n + j;
    const Lanes alpha = SplatLanes(x[r]);
    for (int p = 0; p < kPairs; ++p) {
      const std::size_t o = op + 4 * p;
      const Lanes t = fx(MulLanes(LoadLanes(row + 2 * p), alpha), o, o + 2);
      acc[p] = fx(AddLanes(t, acc[p]), o + 1, o + 3);
    }
  }
  for (int p = 0; p < kPairs; ++p) StoreLanes(y + j + 2 * p, acc[p]);
}

// Whole rows [r0, r1) of y = A^T x: columns in blocks of at most
// kMaxPairs register pairs, an odd last column as a scalar chain.  `op` is
// the offset of element (r0, 0)'s first op.
template <class Fx>
void MatTVecRows(std::size_t n, const double* a, const double* x, double* y,
                 std::size_t r0, std::size_t r1, std::size_t op, const Fx& fx) {
  constexpr std::size_t kMaxPairs = 6;
  std::size_t j = 0;
  for (; j + 2 * kMaxPairs <= n; j += 2 * kMaxPairs) {
    MatTVecColumnBlock<kMaxPairs>(n, a, x, y, j, r0, r1, op + 2 * j, fx);
  }
  const std::size_t pairs = (n - j) / 2;
  switch (pairs) {
    case 5: MatTVecColumnBlock<5>(n, a, x, y, j, r0, r1, op + 2 * j, fx); break;
    case 4: MatTVecColumnBlock<4>(n, a, x, y, j, r0, r1, op + 2 * j, fx); break;
    case 3: MatTVecColumnBlock<3>(n, a, x, y, j, r0, r1, op + 2 * j, fx); break;
    case 2: MatTVecColumnBlock<2>(n, a, x, y, j, r0, r1, op + 2 * j, fx); break;
    case 1: MatTVecColumnBlock<1>(n, a, x, y, j, r0, r1, op + 2 * j, fx); break;
    default: break;
  }
  j += 2 * pairs;
  if (j == n) return;
  double acc = y[j];
  op += 2 * j;
  for (std::size_t r = r0; r < r1; ++r, op += 2 * n) {
    const double t = fx(a[r * n + j] * x[r], op);
    acc = fx(AddFirst(t, acc), op + 1);
  }
  y[j] = acc;
}

// Splits run [lo, hi) of an m x n matrix kernel into its partial first row,
// its whole rows and its partial last row.  `partial(r, j, end)` runs
// elements [j, end) of row r; `whole(r0, r1)` runs rows [r0, r1).
template <class Partial, class Whole>
inline void SplitRows(std::size_t n, std::size_t lo, std::size_t hi,
                      const Partial& partial, const Whole& whole) {
  std::size_t r = lo / n;
  const std::size_t j = lo - r * n;
  const std::size_t r_end = hi / n;
  const std::size_t j_end = hi - r_end * n;
  if (r == r_end) {
    partial(r, j, j_end);
    return;
  }
  if (j != 0) partial(r++, j, n);
  if (r < r_end) whole(r, r_end);
  if (j_end != 0) partial(r_end, 0, j_end);
}

}  // namespace

void MatVecInto(std::size_t m, std::size_t n, const double* a, const double* x,
                double* y) {
  for (std::size_t r = 0; r < m; ++r) y[r] = 0.0;
  if (n == 0) return;
  RunKernel<2>(m * n, [&](std::size_t lo, std::size_t hi, auto fx) {
    const auto partial = [&](std::size_t r, std::size_t j, std::size_t end) {
      const double* BLAS_RESTRICT row = a + r * n;
      std::size_t op = 2 * (r * n + j - lo);
      double acc = y[r];
      for (; j < end; ++j, op += 2) {
        const double t = fx(row[j] * x[j], op);
        acc = fx(AddFirst(acc, t), op + 1);
      }
      y[r] = acc;
    };
    SplitRows(n, lo, hi, partial, [&](std::size_t r, std::size_t r_end) {
      if constexpr (decltype(fx)::kLanes) {
        const std::size_t row_ops = 2 * n;
        std::size_t op = 2 * (r * n - lo);
        for (; r + 8 <= r_end; r += 8, op += 8 * row_ops) {
          MatVecRowBlock<4>(n, a, x, y, r, op, fx);
        }
        for (; r + 2 <= r_end; r += 2, op += 2 * row_ops) {
          MatVecRowBlock<1>(n, a, x, y, r, op, fx);
        }
      }
      for (; r < r_end; ++r) partial(r, 0, n);
    });
  });
}

void MatTVecInto(std::size_t m, std::size_t n, const double* a, const double* x,
                 double* y) {
  for (std::size_t j = 0; j < n; ++j) y[j] = 0.0;
  if (n == 0) return;
  RunKernel<2>(m * n, [&](std::size_t lo, std::size_t hi, auto fx) {
    const auto partial = [&](std::size_t r, std::size_t j, std::size_t end) {
      const double* BLAS_RESTRICT row = a + r * n;
      const double alpha = x[r];
      for (std::size_t op = 2 * (r * n + j - lo); j < end; ++j, op += 2) {
        const double t = fx(row[j] * alpha, op);
        y[j] = fx(AddFirst(t, y[j]), op + 1);
      }
    };
    SplitRows(n, lo, hi, partial, [&](std::size_t r, std::size_t r_end) {
      if constexpr (decltype(fx)::kLanes) {
        MatTVecRows(n, a, x, y, r, r_end, 2 * (r * n - lo), fx);
      } else {
        for (; r < r_end; ++r) partial(r, 0, n);
      }
    });
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
