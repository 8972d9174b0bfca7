// Dense row-major matrix templated on the scalar type.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/scalar.h"
#include "linalg/vector.h"

namespace robustify::linalg {

template <class T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, T(0)) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  T& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  const T& operator()(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

  T* row(std::size_t i) { return data_.data() + i * cols_; }
  const T* row(std::size_t i) const { return data_.data() + i * cols_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

// y = A x into preallocated storage (resized without freeing): the
// allocation-free form the solver inner loops and objectives run on.
// Precondition: y aliases neither a nor x (restrict is asserted below).
template <class T>
void MatVecInto(const Matrix<T>& a, const Vector<T>& x, Vector<T>* y) {
  y->resize(a.rows());
  const std::size_t rows = a.rows(), cols = a.cols();
  if (detail::UseBlockKernels<T>() && rows > 0) {
    blas::MatVecInto(rows, cols, faulty::AsDoubleArray(a.row(0)),
                     faulty::AsDoubleArray(x.data()),
                     faulty::AsDoubleArray(y->data()));
    return;
  }
  const T* ROBUSTIFY_RESTRICT xp = x.data();
  T* ROBUSTIFY_RESTRICT yp = y->data();
  for (std::size_t i = 0; i < rows; ++i) {
    T acc(0);
    const T* ROBUSTIFY_RESTRICT row = a.row(i);
    for (std::size_t j = 0; j < cols; ++j) {
      // Explicit statements pin the routed-load order (matrix element,
      // then vector element); LoadElem is the identity unless the fault
      // model corrupts memory loads.
      const T av = faulty::LoadElem(row[j]);
      const T xv = faulty::LoadElem(xp[j]);
      acc += av * xv;
    }
    yp[i] = acc;
  }
}

// y = A^T x into preallocated storage (zeroed first).  Same no-alias
// precondition as MatVecInto.
template <class T>
void MatTVecInto(const Matrix<T>& a, const Vector<T>& x, Vector<T>* y) {
  y->resize(a.cols());
  const std::size_t rows = a.rows(), cols = a.cols();
  if (detail::UseBlockKernels<T>() && rows > 0) {
    blas::MatTVecInto(rows, cols, faulty::AsDoubleArray(a.row(0)),
                      faulty::AsDoubleArray(x.data()),
                      faulty::AsDoubleArray(y->data()));
    return;
  }
  const T* ROBUSTIFY_RESTRICT xp = x.data();
  T* ROBUSTIFY_RESTRICT yp = y->data();
  for (std::size_t j = 0; j < cols; ++j) yp[j] = T(0);
  for (std::size_t i = 0; i < rows; ++i) {
    const T* ROBUSTIFY_RESTRICT row = a.row(i);
    // x[i] is register-resident across the row: one routed load per row,
    // not one per column.
    const T xv = faulty::LoadElem(xp[i]);
    for (std::size_t j = 0; j < cols; ++j) {
      const T av = faulty::LoadElem(row[j]);
      const T yv = faulty::LoadElem(yp[j]);
      yp[j] = yv + av * xv;
    }
  }
}

// y = A x
template <class T>
Vector<T> MatVec(const Matrix<T>& a, const Vector<T>& x) {
  Vector<T> y(a.rows());
  MatVecInto(a, x, &y);
  return y;
}

// y = A^T x
template <class T>
Vector<T> MatTVec(const Matrix<T>& a, const Vector<T>& x) {
  Vector<T> y(a.cols());
  MatTVecInto(a, x, &y);
  return y;
}

template <class T>
Matrix<double> ToDouble(const Matrix<T>& m) {
  Matrix<double> out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) out(i, j) = AsDouble(m(i, j));
  }
  return out;
}

template <class T>
Matrix<T> Cast(const Matrix<double>& m) {
  Matrix<T> out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) out(i, j) = T(m(i, j));
  }
  return out;
}

}  // namespace robustify::linalg
