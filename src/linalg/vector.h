// Dense vector templated on the scalar type.
//
// Instantiated with `double` for clean/oracle math and with faulty::Real to
// run "on the stochastic processor".  Element storage and moves are
// reliable (protected memory); only arithmetic on the elements is faulty.
#pragma once

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <type_traits>
#include <vector>

#include "faulty/fault_injector.h"
#include "faulty/real.h"
#include "linalg/faulty_blas.h"
#include "linalg/scalar.h"

// No-alias annotation for hot loops over pooled scratch buffers.  A buffer
// from opt::Workspace really is distinct from every other live vector, but
// unlike a fresh operator-new block the compiler cannot prove that; without
// the annotation the reuse costs ~25% in the gradient kernels.
#if defined(__GNUC__) || defined(__clang__)
#define ROBUSTIFY_RESTRICT __restrict__
#else
#define ROBUSTIFY_RESTRICT
#endif

namespace robustify::linalg {

template <class T>
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n) : data_(n, T(0)) {}
  Vector(std::size_t n, T value) : data_(n, value) {}
  Vector(std::initializer_list<T> init) : data_(init) {}
  explicit Vector(std::vector<T> data) : data_(std::move(data)) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Resize-without-free: growing past capacity reallocates, but shrinking
  // (or regrowing within capacity) never returns memory to the allocator —
  // the contract opt::Workspace relies on to keep hot paths allocation-free
  // after warm-up.  New elements are value-initialized to T(0).
  void resize(std::size_t n) { data_.resize(n, T(0)); }

  // Reliable element-wise copy into existing (same-capacity) storage.
  void CopyFrom(const Vector<T>& other) {
    data_.resize(other.data_.size(), T(0));
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] = other.data_[i];
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

 private:
  std::vector<T> data_;
};

namespace detail {

// The kernel fork every templated loop takes: faulty::Real data goes to the
// bulk faulty-BLAS layer unless the active model routes memory loads (the
// load hooks, faulty::LoadElem, live in the templated per-scalar loops
// below each fork).  Any other scalar type never forks: `double` math
// touches no injector, and a faulty test type runs the loop per scalar.
template <class T>
inline bool UseBlockKernels() {
  if constexpr (std::is_same_v<T, faulty::Real>) {
    return !faulty::LoadsRouted();
  } else {
    return false;
  }
}

}  // namespace detail

template <class T>
T Dot(const Vector<T>& a, const Vector<T>& b) {
  if (detail::UseBlockKernels<T>()) {
    return T(blas::DotAcc(a.size(), 0.0, faulty::AsDoubleArray(a.data()), 1,
                          faulty::AsDoubleArray(b.data()), 1));
  }
  T acc(0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Explicit statements pin the load order (a, then b) — the injector's
    // routed-load stream must not depend on unspecified operand evaluation
    // order.  LoadElem is the identity unless the model corrupts loads.
    const T av = faulty::LoadElem(a[i]);
    const T bv = faulty::LoadElem(b[i]);
    acc += av * bv;
  }
  return acc;
}

// y += alpha * x — the Axpy update under CG, SGD, and power iteration.
// x and y must not alias.
template <class T>
void AxpyInPlace(const T& alpha, const Vector<T>& x, Vector<T>* y) {
  const std::size_t n = x.size();
  if (detail::UseBlockKernels<T>()) {
    blas::Axpy(n, AsDouble(alpha), faulty::AsDoubleArray(x.data()), 1,
               faulty::AsDoubleArray(y->data()), 1);
    return;
  }
  const T* ROBUSTIFY_RESTRICT xp = x.data();
  T* ROBUSTIFY_RESTRICT yp = y->data();
  for (std::size_t i = 0; i < n; ++i) {
    const T xv = faulty::LoadElem(xp[i]);
    const T yv = faulty::LoadElem(yp[i]);
    yp[i] = yv + alpha * xv;
  }
}

// y -= alpha * x.  x and y must not alias.
template <class T>
void AxmyInPlace(const T& alpha, const Vector<T>& x, Vector<T>* y) {
  const std::size_t n = x.size();
  if (detail::UseBlockKernels<T>()) {
    blas::Axmy(n, AsDouble(alpha), faulty::AsDoubleArray(x.data()), 1,
               faulty::AsDoubleArray(y->data()), 1);
    return;
  }
  const T* ROBUSTIFY_RESTRICT xp = x.data();
  T* ROBUSTIFY_RESTRICT yp = y->data();
  for (std::size_t i = 0; i < n; ++i) {
    const T xv = faulty::LoadElem(xp[i]);
    const T yv = faulty::LoadElem(yp[i]);
    yp[i] = yv - alpha * xv;
  }
}

// y -= x.  x and y must not alias.
template <class T>
void SubInPlace(const Vector<T>& x, Vector<T>* y) {
  const std::size_t n = x.size();
  if (detail::UseBlockKernels<T>()) {
    blas::Sub(n, faulty::AsDoubleArray(x.data()), faulty::AsDoubleArray(y->data()));
    return;
  }
  const T* ROBUSTIFY_RESTRICT xp = x.data();
  T* ROBUSTIFY_RESTRICT yp = y->data();
  for (std::size_t i = 0; i < n; ++i) {
    const T xv = faulty::LoadElem(xp[i]);
    const T yv = faulty::LoadElem(yp[i]);
    yp[i] = yv - xv;
  }
}

// p = s + beta * p — the CG search-direction recurrence.  s and p must not
// alias.
template <class T>
void XpbyInPlace(const Vector<T>& s, const T& beta, Vector<T>* p) {
  const std::size_t n = s.size();
  if (detail::UseBlockKernels<T>()) {
    blas::Xpby(n, faulty::AsDoubleArray(s.data()), AsDouble(beta),
               faulty::AsDoubleArray(p->data()));
    return;
  }
  const T* ROBUSTIFY_RESTRICT sp = s.data();
  T* ROBUSTIFY_RESTRICT pp = p->data();
  for (std::size_t i = 0; i < n; ++i) {
    const T sv = faulty::LoadElem(sp[i]);
    const T pv = faulty::LoadElem(pp[i]);
    pp[i] = sv + beta * pv;
  }
}

// x /= divisor (one faulty division per element).
template <class T>
void DivInPlace(const T& divisor, Vector<T>* x) {
  const std::size_t n = x->size();
  if (detail::UseBlockKernels<T>()) {
    blas::DivScal(n, AsDouble(divisor), faulty::AsDoubleArray(x->data()));
    return;
  }
  T* ROBUSTIFY_RESTRICT xp = x->data();
  for (std::size_t i = 0; i < n; ++i) {
    const T xv = faulty::LoadElem(xp[i]);
    xp[i] = xv / divisor;
  }
}

// x *= alpha (one faulty multiplication per element).
template <class T>
void ScalInPlace(const T& alpha, Vector<T>* x) {
  const std::size_t n = x->size();
  if (detail::UseBlockKernels<T>()) {
    blas::Scal(n, AsDouble(alpha), faulty::AsDoubleArray(x->data()));
    return;
  }
  T* ROBUSTIFY_RESTRICT xp = x->data();
  for (std::size_t i = 0; i < n; ++i) {
    const T xv = faulty::LoadElem(xp[i]);
    xp[i] = xv * alpha;
  }
}

template <class T>
T NormSquared(const Vector<T>& v) {
  return Dot(v, v);
}

template <class T>
T Norm(const Vector<T>& v) {
  if (detail::UseBlockKernels<T>()) {
    return T(blas::Nrm2(v.size(), faulty::AsDoubleArray(v.data())));
  }
  using std::sqrt;
  return sqrt(NormSquared(v));
}

template <class T>
bool AllFinite(const Vector<T>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(AsDouble(v[i]))) return false;
  }
  return true;
}

template <class T>
Vector<double> ToDouble(const Vector<T>& v) {
  Vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = AsDouble(v[i]);
  return out;
}

template <class T>
Vector<T> Cast(const Vector<double>& v) {
  Vector<T> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = T(v[i]);
  return out;
}

}  // namespace robustify::linalg
