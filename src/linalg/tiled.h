// Tiled faulty direct solvers: blocked Cholesky and blocked Householder QR
// as dependency-graph tile tasks over the faulty-BLAS strided primitives.
//
// The monolithic baselines in lsq.h cap problem size at toy n and leave
// every core but one idle inside a trial.  This engine stores the Gram
// matrix by contiguous tiles and decomposes the factorization into the
// classic potrf / trsm / syrk / gemm tile tasks (QR into Householder panel
// tasks + trailing-block updates), executed by harness::TaskGraph on the
// ParallelFor workers — parallelism *inside* one solve, faults per solve
// instead of per sweep.
//
// Determinism contract:
//  * Every task owns its own FaultInjector, seeded from
//    faulty::DeriveStreamSeed(solve seed, task id).  Task ids are assigned
//    by graph construction order, which depends only on (n, tile), never on
//    the worker count or execution interleaving — so a solve is
//    bit-reproducible at any thread count, including the campaign CSVs
//    built from it.
//  * At fault rate 0 the tiled solve is bit-identical to the monolithic
//    lsq.h baseline: every tile kernel subtracts its partial dot products
//    in exactly the global element order the monolithic solver uses (gemm
//    chains run in increasing k, then trsm/potrf finish the within-tile
//    prefix), and carried accumulators make the chunked chains the same
//    IEEE-754 op sequence as one full-length StridedDotAccNeg (the build
//    pins -ffp-contract=off, so the compiler cannot reassociate them).
//  * All faulty FP work happens inside tasks; packing and readout are
//    reliable copies.  The solve consumes nothing from any ambient
//    (thread-local) injector the caller may have installed.
//
// The engine owns its workspace and reuses it across solves: after a warm
// solve of the same shape, another solve with threads <= 1 performs no
// allocation (pinned by tests/test_allocation.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "faulty/fault_injector.h"
#include "faulty/fault_model.h"
#include "faulty/lfsr.h"
#include "harness/task_graph.h"
#include "linalg/matrix.h"
#include "linalg/scalar.h"
#include "linalg/strided.h"
#include "linalg/vector.h"

namespace robustify::linalg {

// Per-solve fault configuration.  With inject == false (the default) the
// solve is clean regardless of scalar type — the oracle path.  `strategy`
// and `engine` select the test oracles (per-op injector, per-scalar
// kernels) for every task injector.
struct TileFaultConfig {
  bool inject = false;
  double fault_rate = 0.0;
  // Captured by pointer; must outlive the solve (use SharedBitDistribution).
  const faulty::BitDistribution* bits = nullptr;
  std::uint64_t seed = 1;
  faulty::FaultInjector::Strategy strategy = faulty::FaultInjector::Strategy::kSkipAhead;
  faulty::Engine engine = faulty::Engine::kBlock;
  faulty::FaultModel model;
};

struct TiledOptions {
  // Tile edge (Cholesky) / panel width (QR); clamped to the problem size.
  std::size_t tile = 128;
  // In-solve workers: > 0 explicit, else the ROBUSTIFY_TILE_THREADS env var
  // (re-read every solve, not cached), else the harness default
  // (ROBUSTIFY_THREADS / hardware concurrency).  Results never depend on it.
  int threads = 0;
  TileFaultConfig fault;
};

namespace detail {

// Worker-count resolution for the in-solve task pool (tiled.cpp).
int ResolveTileThreads(int requested);

// Sums the per-task scope stats into one solve-level ContextStats.
faulty::ContextStats SumTaskStats(const std::vector<faulty::ContextStats>& stats);

// RAII: install a task's injector as the thread-local one, restore after.
class TileInjectorScope {
 public:
  explicit TileInjectorScope(faulty::FaultInjector* injector)
      : previous_(faulty::detail::ExchangeThreadInjector(injector)) {}
  ~TileInjectorScope() { faulty::detail::ExchangeThreadInjector(previous_); }
  TileInjectorScope(const TileInjectorScope&) = delete;
  TileInjectorScope& operator=(const TileInjectorScope&) = delete;

 private:
  faulty::FaultInjector* previous_;
};

}  // namespace detail

// Square matrix stored by contiguous tiles: tile (i, j) is a packed
// row-major dim(i) x dim(j) block at a fixed tile*tile slot stride (edge
// tiles leave their slot tail unused).  Only the lower triangle of tiles is
// written by the Cholesky path; the rest is never read.
template <class T>
class TiledMatrix {
 public:
  // Resize-without-free, same contract as Vector::resize.  Contents are
  // unspecified; the packing / formation step overwrites what is read.
  void Reset(std::size_t n, std::size_t tile) {
    n_ = n;
    b_ = tile == 0 ? n : std::min(tile, n == 0 ? std::size_t{1} : n);
    nt_ = n_ == 0 ? 0 : (n_ + b_ - 1) / b_;
    data_.resize(nt_ * nt_ * b_ * b_, T(0));
  }

  std::size_t n() const { return n_; }
  std::size_t tile_size() const { return b_; }
  std::size_t tiles() const { return nt_; }
  // Edge dimension of tile row/column t.
  std::size_t dim(std::size_t t) const { return std::min(b_, n_ - t * b_); }

  T* tile(std::size_t i, std::size_t j) { return data_.data() + (i * nt_ + j) * b_ * b_; }
  const T* tile(std::size_t i, std::size_t j) const {
    return data_.data() + (i * nt_ + j) * b_ * b_;
  }

 private:
  std::size_t n_ = 0;
  std::size_t b_ = 1;
  std::size_t nt_ = 0;
  std::vector<T> data_;
};

// Task kinds for the tile graphs (TaskTag::kind).
enum TiledTaskKind : int {
  kTileFormG = 1,   // (i, j): Gram tile A_i^T A_j from the packed A^T strips
  kTileFormC,       // (i):    rhs tile A_i^T b
  kTilePotrf,       // (k):    Cholesky of diagonal tile
  kTileTrsm,        // (i, k): triangular solve of panel tile against (k, k)
  kTileSyrk,        // (i, k): rank-b update of diagonal tile (i, i)
  kTileGemm,        // (i, j, k): rank-b update of tile (i, j)
  kTileFwdUpdate,   // (i, k): rhs_i -= L(i,k) y_k
  kTileFwdSolve,    // (i):    forward solve against diagonal tile
  kTileBackSolve,   // (i):    back-substitution chain tile (merged updates)
  kTileQrPanel,     // (p):    Householder panel + in-panel and rhs updates
  kTileQrUpdate,    // (p, j): apply panel p's reflectors to column block j
  kTileQrBackSub,   // ():     back-substitution on R
};

// The tiled solver engine.  One instance per thread (or per caller); reuse
// it to amortize the workspace.  Instantiated with faulty::Real for faulty
// solves and double as the clean oracle.
template <class T>
class TiledLsqEngine {
 public:
  // Solves G x = c for SPD G via tiled Cholesky.
  void SolveSpd(const Matrix<double>& g, const Vector<double>& c,
                const TiledOptions& opts, Vector<double>* x,
                faulty::ContextStats* stats = nullptr) {
    const std::size_t n = g.rows();
    Prepare(n, opts.tile);
    PackSpd(g);
    PackRhs(c);
    BuildCholeskyGraph(/*form_gram=*/false, /*rows=*/n);
    RunCholesky(opts);
    ReadOutRhs(x);
    if (stats) *stats = detail::SumTaskStats(task_stats_);
  }

  // min ||A x - b|| via the normal equations and tiled Cholesky
  // (the tiled form of lsq.h's SolveLsqCholesky; bit-identical to it at
  // fault rate 0).
  void SolveCholesky(const Matrix<double>& a, const Vector<double>& b,
                     const TiledOptions& opts, Vector<double>* x,
                     faulty::ContextStats* stats = nullptr) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    Prepare(n, opts.tile);
    PackTranspose(a);
    PackVector(b, &b_);
    rhs_.resize(n);
    BuildCholeskyGraph(/*form_gram=*/true, /*rows=*/m);
    RunCholesky(opts);
    ReadOutRhs(x);
    if (stats) *stats = detail::SumTaskStats(task_stats_);
  }

  // min ||A x - b|| via blocked Householder QR (panel width = opts.tile;
  // bit-identical to lsq.h's SolveLsqQr at fault rate 0).
  void SolveQr(const Matrix<double>& a, const Vector<double>& b,
               const TiledOptions& opts, Vector<double>* x,
               faulty::ContextStats* stats = nullptr) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    panel_ = opts.tile == 0 ? n : std::min(opts.tile, n == 0 ? std::size_t{1} : n);
    PackTranspose(a);
    PackVector(b, &b_);
    v_.Reset(n, m);
    vtv_.resize(n);
    x_.resize(n);
    BuildQrGraph(m, n);
    RunQr(opts, m, n);
    x->resize(n);
    for (std::size_t i = 0; i < n; ++i) (*x)[i] = AsDouble(x_[i]);
    if (stats) *stats = detail::SumTaskStats(task_stats_);
  }

 private:
  // ---- resource ids --------------------------------------------------------
  std::size_t GramRes(std::size_t i, std::size_t j) const { return i * g_.tiles() + j; }
  std::size_t RhsRes(std::size_t i) const { return g_.tiles() * g_.tiles() + i; }
  std::size_t QrColRes(std::size_t p) const { return p; }
  std::size_t QrRhsRes(std::size_t np) const { return np; }
  std::size_t QrPanelRes(std::size_t np, std::size_t p) const { return np + 1 + p; }

  // ---- packing (reliable copies, no FP ops) --------------------------------
  void Prepare(std::size_t n, std::size_t tile) {
    g_.Reset(n, tile);
    rhs_.resize(n);
  }

  void PackSpd(const Matrix<double>& g) {
    const std::size_t b = g_.tile_size();
    for (std::size_t ti = 0; ti < g_.tiles(); ++ti) {
      for (std::size_t tj = 0; tj <= ti; ++tj) {
        T* t = g_.tile(ti, tj);
        const std::size_t ld = g_.dim(tj);
        for (std::size_t r = 0; r < g_.dim(ti); ++r) {
          const double* src = g.row(ti * b + r) + tj * b;
          for (std::size_t c = 0; c < ld; ++c) t[r * ld + c] = T(src[c]);
        }
      }
    }
  }

  void PackRhs(const Vector<double>& c) {
    for (std::size_t i = 0; i < c.size(); ++i) rhs_[i] = T(c[i]);
  }

  void PackTranspose(const Matrix<double>& a) {
    at_.Reset(a.cols(), a.rows());
    for (std::size_t r = 0; r < a.rows(); ++r) {
      const double* src = a.row(r);
      for (std::size_t j = 0; j < a.cols(); ++j) at_(j, r) = T(src[j]);
    }
  }

  void PackVector(const Vector<double>& src, Vector<T>* dst) {
    dst->resize(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) (*dst)[i] = T(src[i]);
  }

  void ReadOutRhs(Vector<double>* x) {
    x->resize(rhs_.size());
    for (std::size_t i = 0; i < rhs_.size(); ++i) (*x)[i] = AsDouble(rhs_[i]);
  }

  // ---- graph construction --------------------------------------------------
  void BuildCholeskyGraph(bool form_gram, std::size_t rows) {
    form_rows_ = rows;
    const std::size_t nt = g_.tiles();
    graph_.Reset(nt * nt + nt);
    if (form_gram) {
      for (std::size_t i = 0; i < nt; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          const int t = graph_.AddTask({kTileFormG, static_cast<int>(i),
                                        static_cast<int>(j), 0});
          graph_.Writes(t, GramRes(i, j));
        }
        const int t = graph_.AddTask({kTileFormC, static_cast<int>(i), 0, 0});
        graph_.Writes(t, RhsRes(i));
      }
    }
    for (std::size_t k = 0; k < nt; ++k) {
      const int potrf = graph_.AddTask({kTilePotrf, 0, 0, static_cast<int>(k)});
      graph_.Writes(potrf, GramRes(k, k));
      for (std::size_t i = k + 1; i < nt; ++i) {
        const int trsm = graph_.AddTask({kTileTrsm, static_cast<int>(i), 0,
                                         static_cast<int>(k)});
        graph_.Reads(trsm, GramRes(k, k));
        graph_.Writes(trsm, GramRes(i, k));
      }
      for (std::size_t i = k + 1; i < nt; ++i) {
        const int syrk = graph_.AddTask({kTileSyrk, static_cast<int>(i), 0,
                                         static_cast<int>(k)});
        graph_.Reads(syrk, GramRes(i, k));
        graph_.Writes(syrk, GramRes(i, i));
        for (std::size_t j = k + 1; j < i; ++j) {
          const int gemm = graph_.AddTask({kTileGemm, static_cast<int>(i),
                                           static_cast<int>(j), static_cast<int>(k)});
          graph_.Reads(gemm, GramRes(i, k));
          graph_.Reads(gemm, GramRes(j, k));
          graph_.Writes(gemm, GramRes(i, j));
        }
      }
    }
    // Forward substitution: cross-tile updates in increasing k (the
    // monolithic subtraction order), then the within-tile solve.
    for (std::size_t i = 0; i < nt; ++i) {
      for (std::size_t k = 0; k < i; ++k) {
        const int upd = graph_.AddTask({kTileFwdUpdate, static_cast<int>(i), 0,
                                        static_cast<int>(k)});
        graph_.Reads(upd, GramRes(i, k));
        graph_.Reads(upd, RhsRes(k));
        graph_.Writes(upd, RhsRes(i));
      }
      const int fwd = graph_.AddTask({kTileFwdSolve, static_cast<int>(i), 0, 0});
      graph_.Reads(fwd, GramRes(i, i));
      graph_.Writes(fwd, RhsRes(i));
    }
    // Back substitution: one chain task per tile, which also applies the
    // cross-tile updates itself — per element the monolithic order is
    // within-tile first, then tiles k > i in increasing k, which a separate
    // pre-applied update task could not reproduce.
    for (std::size_t i = nt; i-- > 0;) {
      const int back = graph_.AddTask({kTileBackSolve, static_cast<int>(i), 0, 0});
      graph_.Reads(back, GramRes(i, i));
      for (std::size_t k = i + 1; k < nt; ++k) {
        graph_.Reads(back, GramRes(k, i));
        graph_.Reads(back, RhsRes(k));
      }
      graph_.Writes(back, RhsRes(i));
    }
  }

  void BuildQrGraph(std::size_t m, std::size_t n) {
    const std::size_t np = n == 0 ? 0 : (n + panel_ - 1) / panel_;
    graph_.Reset(2 * np + 1);
    for (std::size_t p = 0; p < np; ++p) {
      const int panel = graph_.AddTask({kTileQrPanel, static_cast<int>(p), 0, 0});
      graph_.Writes(panel, QrColRes(p));
      graph_.Writes(panel, QrPanelRes(np, p));
      graph_.Writes(panel, QrRhsRes(np));
      for (std::size_t jb = p + 1; jb < np; ++jb) {
        const int upd = graph_.AddTask({kTileQrUpdate, static_cast<int>(p),
                                        static_cast<int>(jb), 0});
        graph_.Reads(upd, QrPanelRes(np, p));
        graph_.Writes(upd, QrColRes(jb));
      }
    }
    const int back = graph_.AddTask({kTileQrBackSub, 0, 0, 0});
    graph_.Reads(back, QrRhsRes(np));
    for (std::size_t p = 0; p < np; ++p) graph_.Reads(back, QrColRes(p));
    (void)m;
  }

  // ---- execution -----------------------------------------------------------
  template <class Exec>
  void RunAll(const TiledOptions& opts, Exec&& exec) {
    const TileFaultConfig& cfg = opts.fault;
    task_stats_.assign(static_cast<std::size_t>(graph_.size()), faulty::ContextStats{});
    const int workers = detail::ResolveTileThreads(opts.threads);
    graph_.Run(workers, [&](int id, const harness::TaskTag& tag) {
      if constexpr (std::is_same_v<T, faulty::Real>) {
        if (cfg.inject) {
          faulty::FaultInjector injector(
              cfg.fault_rate, *cfg.bits,
              faulty::DeriveStreamSeed(cfg.seed, static_cast<std::uint64_t>(id)),
              cfg.model, cfg.strategy, cfg.engine);
          detail::TileInjectorScope scope(&injector);
          exec(tag);
          task_stats_[static_cast<std::size_t>(id)] = injector.stats();
          return;
        }
      }
      // Clean path (oracle scalar type or inject == false): make sure no
      // ambient injector leaks into the tile kernels.
      detail::TileInjectorScope scope(nullptr);
      exec(tag);
    });
  }

  void RunCholesky(const TiledOptions& opts) {
    RunAll(opts, [this](const harness::TaskTag& tag) { ExecCholeskyTask(tag); });
  }

  void RunQr(const TiledOptions& opts, std::size_t m, std::size_t n) {
    RunAll(opts, [this, m, n](const harness::TaskTag& tag) { ExecQrTask(tag, m, n); });
  }

  // ---- Cholesky tile kernels ----------------------------------------------
  //
  // Every kernel carries the accumulator through detail::StridedDotAcc* so
  // the chunked per-element subtraction chains execute the exact op
  // sequence of the monolithic solver's full-length dots.
  void ExecCholeskyTask(const harness::TaskTag& tag) {
    using std::sqrt;
    const std::size_t b = g_.tile_size();
    switch (tag.kind) {
      case kTileFormG: {
        const std::size_t i = static_cast<std::size_t>(tag.i);
        const std::size_t j = static_cast<std::size_t>(tag.j);
        T* t = g_.tile(i, j);
        const std::size_t ld = g_.dim(j);
        for (std::size_t r = 0; r < g_.dim(i); ++r) {
          // Diagonal tiles: only the lower half is ever read.
          const std::size_t cmax = (i == j) ? r + 1 : ld;
          for (std::size_t c = 0; c < cmax; ++c) {
            // Monolithic operand order: row min(gi,gj) is x, row max is y.
            t[r * ld + c] = detail::StridedDotAcc(T(0), form_rows_, at_.row(j * b + c),
                                                  1, at_.row(i * b + r), 1);
          }
        }
        break;
      }
      case kTileFormC: {
        const std::size_t i = static_cast<std::size_t>(tag.i);
        for (std::size_t r = 0; r < g_.dim(i); ++r) {
          rhs_[i * b + r] = detail::StridedDotAcc(T(0), form_rows_, at_.row(i * b + r),
                                                  1, b_.data(), 1);
        }
        break;
      }
      case kTilePotrf: {
        const std::size_t k = static_cast<std::size_t>(tag.k);
        T* t = g_.tile(k, k);
        const std::size_t d = g_.dim(k);
        for (std::size_t r = 0; r < d; ++r) {
          for (std::size_t c = 0; c <= r; ++c) {
            T acc = detail::StridedDotAccNeg(t[r * d + c], c, t + r * d, 1, t + c * d, 1);
            t[r * d + c] = (r == c) ? sqrt(acc) : acc / t[c * d + c];
          }
        }
        break;
      }
      case kTileTrsm: {
        const std::size_t i = static_cast<std::size_t>(tag.i);
        const std::size_t k = static_cast<std::size_t>(tag.k);
        const T* diag = g_.tile(k, k);
        T* t = g_.tile(i, k);
        const std::size_t d = g_.dim(k);
        for (std::size_t r = 0; r < g_.dim(i); ++r) {
          for (std::size_t c = 0; c < d; ++c) {
            T acc = detail::StridedDotAccNeg(t[r * d + c], c, t + r * d, 1,
                                             diag + c * d, 1);
            t[r * d + c] = acc / diag[c * d + c];
          }
        }
        break;
      }
      case kTileSyrk: {
        const std::size_t i = static_cast<std::size_t>(tag.i);
        const std::size_t k = static_cast<std::size_t>(tag.k);
        const T* src = g_.tile(i, k);
        const std::size_t len = g_.dim(k);
        T* t = g_.tile(i, i);
        const std::size_t d = g_.dim(i);
        for (std::size_t r = 0; r < d; ++r) {
          for (std::size_t c = 0; c <= r; ++c) {
            t[r * d + c] = detail::StridedDotAccNeg(t[r * d + c], len, src + r * len, 1,
                                                    src + c * len, 1);
          }
        }
        break;
      }
      case kTileGemm: {
        const std::size_t i = static_cast<std::size_t>(tag.i);
        const std::size_t j = static_cast<std::size_t>(tag.j);
        const std::size_t k = static_cast<std::size_t>(tag.k);
        const T* left = g_.tile(i, k);
        const T* right = g_.tile(j, k);
        const std::size_t len = g_.dim(k);
        T* t = g_.tile(i, j);
        const std::size_t ld = g_.dim(j);
        for (std::size_t r = 0; r < g_.dim(i); ++r) {
          for (std::size_t c = 0; c < ld; ++c) {
            t[r * ld + c] = detail::StridedDotAccNeg(t[r * ld + c], len, left + r * len,
                                                     1, right + c * len, 1);
          }
        }
        break;
      }
      case kTileFwdUpdate: {
        const std::size_t i = static_cast<std::size_t>(tag.i);
        const std::size_t k = static_cast<std::size_t>(tag.k);
        const T* t = g_.tile(i, k);
        const std::size_t len = g_.dim(k);
        T* yi = rhs_.data() + i * b;
        const T* yk = rhs_.data() + k * b;
        for (std::size_t r = 0; r < g_.dim(i); ++r) {
          yi[r] = detail::StridedDotAccNeg(yi[r], len, t + r * len, 1, yk, 1);
        }
        break;
      }
      case kTileFwdSolve: {
        const std::size_t i = static_cast<std::size_t>(tag.i);
        const T* diag = g_.tile(i, i);
        const std::size_t d = g_.dim(i);
        T* yi = rhs_.data() + i * b;
        for (std::size_t r = 0; r < d; ++r) {
          T acc = detail::StridedDotAccNeg(yi[r], r, diag + r * d, 1, yi, 1);
          yi[r] = acc / diag[r * d + r];
        }
        break;
      }
      case kTileBackSolve: {
        const std::size_t i = static_cast<std::size_t>(tag.i);
        const T* diag = g_.tile(i, i);
        const std::size_t d = g_.dim(i);
        T* xi = rhs_.data() + i * b;
        for (std::size_t r = d; r-- > 0;) {
          // Monolithic order for element i*b + r: the within-tile rest of
          // the column first, then every tile below, k increasing.
          T acc = detail::StridedDotAccNeg(xi[r], d - r - 1, diag + (r + 1) * d + r,
                                           static_cast<std::ptrdiff_t>(d), xi + r + 1, 1);
          for (std::size_t k = i + 1; k < g_.tiles(); ++k) {
            acc = detail::StridedDotAccNeg(acc, g_.dim(k), g_.tile(k, i) + r,
                                           static_cast<std::ptrdiff_t>(g_.dim(i)),
                                           rhs_.data() + k * b, 1);
          }
          xi[r] = acc / diag[r * d + r];
        }
        break;
      }
      default: break;
    }
  }

  // ---- QR tasks ------------------------------------------------------------
  void ExecQrTask(const harness::TaskTag& tag, std::size_t m, std::size_t n) {
    using std::sqrt;
    switch (tag.kind) {
      case kTileQrPanel: {
        const std::size_t p = static_cast<std::size_t>(tag.i);
        const std::size_t k0 = p * panel_;
        const std::size_t k1 = std::min(k0 + panel_, n);
        for (std::size_t k = k0; k < k1; ++k) {
          T* colk = at_.row(k);
          const T norm2 =
              detail::StridedDotAcc(T(0), m - k, colk + k, 1, colk + k, 1);
          T alpha = sqrt(norm2);
          if (AsDouble(colk[k]) > 0.0) alpha = -alpha;
          T* vk = v_.row(k);
          vk[k] = colk[k] - alpha;
          for (std::size_t i = k + 1; i < m; ++i) vk[i] = colk[i];
          vtv_[k] = detail::StridedDotAcc(T(0), m - k, vk + k, 1, vk + k, 1);
          colk[k] = alpha;
          for (std::size_t i = k + 1; i < m; ++i) colk[i] = T(0);
          if (AsDouble(vtv_[k]) == 0.0) continue;
          // In-panel trailing columns, then the right-hand side — column j
          // and b both see H_k in increasing k, exactly like the monolithic
          // elimination.
          for (std::size_t j = k + 1; j < k1; ++j) {
            ApplyReflector(k, at_.row(j) + k, m - k);
          }
          ApplyReflector(k, b_.data() + k, m - k);
        }
        break;
      }
      case kTileQrUpdate: {
        const std::size_t p = static_cast<std::size_t>(tag.i);
        const std::size_t jb = static_cast<std::size_t>(tag.j);
        const std::size_t k0 = p * panel_;
        const std::size_t k1 = std::min(k0 + panel_, n);
        const std::size_t j0 = jb * panel_;
        const std::size_t j1 = std::min(j0 + panel_, n);
        for (std::size_t k = k0; k < k1; ++k) {
          if (AsDouble(vtv_[k]) == 0.0) continue;
          for (std::size_t j = j0; j < j1; ++j) {
            ApplyReflector(k, at_.row(j) + k, m - k);
          }
        }
        break;
      }
      case kTileQrBackSub: {
        const std::ptrdiff_t col = static_cast<std::ptrdiff_t>(m);
        for (std::size_t kk = n; kk-- > 0;) {
          T acc = b_[kk];
          if (kk + 1 < n) {
            acc = detail::StridedDotAccNeg(acc, n - kk - 1, &at_(kk + 1, kk), col,
                                           x_.data() + kk + 1, 1);
          }
          x_[kk] = acc / at_(kk, kk);
        }
        break;
      }
      default: break;
    }
  }

  // H_k v = v - (2 <v_k, v> / <v_k, v_k>) v_k applied to `len` elements
  // starting at row k — the same dot / scale / axmy triple as lsq.h.
  void ApplyReflector(std::size_t k, T* target, std::size_t len) {
    const T* vk = v_.row(k) + k;
    const T dot = detail::StridedDotAcc(T(0), len, vk, 1, target, 1);
    const T scale = T(2) * dot / vtv_[k];
    detail::StridedAxmy(len, scale, vk, 1, target, 1);
  }

  harness::TaskGraph graph_;
  TiledMatrix<T> g_;
  Matrix<T> at_;    // A^T: row j = column j of A (Cholesky-from-A and QR)
  Matrix<T> v_;     // QR Householder vectors, row k holds v_k at offset k
  Vector<T> rhs_;   // Cholesky rhs: c -> y -> x through the solve chain
  Vector<T> b_;     // packed right-hand side (QR works on it in place)
  Vector<T> vtv_;   // QR <v_k, v_k>
  Vector<T> x_;     // QR solution
  std::vector<faulty::ContextStats> task_stats_;
  std::size_t form_rows_ = 0;  // m of the A the Gram tiles are formed from
  std::size_t panel_ = 128;    // QR panel width
};

}  // namespace robustify::linalg
