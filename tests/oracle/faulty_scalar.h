// FaultyScalar<Fpu>: the faulty scalar type of the equivalence oracles.
//
// One double whose arithmetic and comparisons run through the policy Fpu's
// static Execute / ExecuteComparison — the same op set, op count and
// semantics as faulty::Real (src/faulty/real.h): construction, copies,
// negation, fabs and the finiteness tests are reliable; every other
// arithmetic op and every comparison is one faulty FPU op.  Element loads
// go through the library's generic faulty::LoadElem like Real's do.
//
// Being a type other than faulty::Real, it never takes the bulk
// faulty-BLAS path (linalg::detail::UseBlockKernels): every templated
// kernel instantiated on it runs its per-scalar loop, one Execute per op.
// That is what makes it an oracle for the block kernels.
#pragma once

#include <cmath>
#include <type_traits>

namespace robustify::oracle {

template <class Fpu>
class FaultyScalar {
 public:
  FaultyScalar() = default;
  template <class U, std::enable_if_t<std::is_arithmetic_v<U>, int> = 0>
  FaultyScalar(U v) : v_(static_cast<double>(v)) {}  // NOLINT: implicit by design

  double value() const { return v_; }
  explicit operator double() const { return v_; }

  FaultyScalar& operator+=(FaultyScalar o) { v_ = Fpu::Execute(v_ + o.v_); return *this; }
  FaultyScalar& operator-=(FaultyScalar o) { v_ = Fpu::Execute(v_ - o.v_); return *this; }
  FaultyScalar& operator*=(FaultyScalar o) { v_ = Fpu::Execute(v_ * o.v_); return *this; }
  FaultyScalar& operator/=(FaultyScalar o) { v_ = Fpu::Execute(v_ / o.v_); return *this; }

  // Hidden friends: found by ADL from templated code, and (unlike function
  // templates) they take a double on either side by implicit conversion,
  // as Real's free operators do.
  friend FaultyScalar operator+(FaultyScalar a, FaultyScalar b) {
    return FaultyScalar(Fpu::Execute(a.v_ + b.v_));
  }
  friend FaultyScalar operator-(FaultyScalar a, FaultyScalar b) {
    return FaultyScalar(Fpu::Execute(a.v_ - b.v_));
  }
  friend FaultyScalar operator*(FaultyScalar a, FaultyScalar b) {
    return FaultyScalar(Fpu::Execute(a.v_ * b.v_));
  }
  friend FaultyScalar operator/(FaultyScalar a, FaultyScalar b) {
    return FaultyScalar(Fpu::Execute(a.v_ / b.v_));
  }
  friend FaultyScalar operator-(FaultyScalar a) { return FaultyScalar(-a.v_); }
  friend FaultyScalar operator+(FaultyScalar a) { return a; }

  friend bool operator<(FaultyScalar a, FaultyScalar b) {
    return Fpu::ExecuteComparison(a.v_ < b.v_);
  }
  friend bool operator>(FaultyScalar a, FaultyScalar b) {
    return Fpu::ExecuteComparison(a.v_ > b.v_);
  }
  friend bool operator<=(FaultyScalar a, FaultyScalar b) {
    return Fpu::ExecuteComparison(a.v_ <= b.v_);
  }
  friend bool operator>=(FaultyScalar a, FaultyScalar b) {
    return Fpu::ExecuteComparison(a.v_ >= b.v_);
  }
  friend bool operator==(FaultyScalar a, FaultyScalar b) {
    return Fpu::ExecuteComparison(a.v_ == b.v_);
  }
  friend bool operator!=(FaultyScalar a, FaultyScalar b) {
    return Fpu::ExecuteComparison(a.v_ != b.v_);
  }

  friend FaultyScalar sqrt(FaultyScalar a) { return FaultyScalar(Fpu::Execute(std::sqrt(a.v_))); }
  friend FaultyScalar fabs(FaultyScalar a) { return FaultyScalar(std::fabs(a.v_)); }
  friend FaultyScalar abs(FaultyScalar a) { return fabs(a); }
  friend bool isfinite(FaultyScalar a) { return std::isfinite(a.v_); }
  friend bool isnan(FaultyScalar a) { return std::isnan(a.v_); }

 private:
  double v_ = 0.0;
};

}  // namespace robustify::oracle
