//===- tensor/Matrix.h - Dense row-major matrix ----------------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, row-major, double-precision matrix with the linear algebra the
/// rest of the library needs: GEMM variants, transposition, row reductions,
/// elementwise maps and lp norms. Vectors are represented as 1xN or Nx1
/// matrices. This is the tensor substrate standing in for the paper's
/// PyTorch backend.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_TENSOR_MATRIX_H
#define DEEPT_TENSOR_MATRIX_H

#include "support/Parallel.h"

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <vector>

namespace deept {
namespace support {
class Rng;
} // namespace support

namespace tensor {

namespace detail {

/// std::allocator<double>, except that default-insertion (resize with no
/// value) leaves elements uninitialized. Matrix::uninit uses this to skip
/// the zero-fill for outputs whose every element is about to be written
/// -- on coefficient-matrix-sized temporaries the fill is a measurable
/// slice of propagation time. Value-insertion (the fill constructor)
/// takes the normal placement-new fallback and still initializes.
template <typename T> struct NoInitAllocator {
  using value_type = T;
  NoInitAllocator() = default;
  template <typename U> NoInitAllocator(const NoInitAllocator<U> &) noexcept {}
  T *allocate(std::size_t N) { return std::allocator<T>().allocate(N); }
  void deallocate(T *P, std::size_t N) {
    std::allocator<T>().deallocate(P, N);
  }
  template <typename U> void construct(U *P) noexcept {
    ::new (static_cast<void *>(P)) U;
  }
  template <typename U>
  bool operator==(const NoInitAllocator<U> &) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const NoInitAllocator<U> &) const noexcept {
    return false;
  }
};

} // namespace detail

/// Dense row-major matrix of doubles.
class Matrix {
public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a RowsxCols matrix filled with \p Fill.
  Matrix(size_t Rows, size_t Cols, double Fill = 0.0);

  /// Creates a RowsxCols matrix with UNINITIALIZED elements. Only for
  /// outputs whose every element is written before any read (full
  /// overwrites and kernel calls that cover every row).
  static Matrix uninit(size_t Rows, size_t Cols);

  /// Creates a matrix from a nested initializer-style vector. All inner
  /// vectors must have the same length.
  static Matrix fromRows(const std::vector<std::vector<double>> &RowData);

  /// Creates a 1xN row vector.
  static Matrix rowVector(const std::vector<double> &Values);

  /// Creates an NxN identity matrix.
  static Matrix identity(size_t N);

  /// Creates a matrix with i.i.d. Gaussian entries N(0, Stddev^2).
  static Matrix randn(size_t Rows, size_t Cols, support::Rng &Rng,
                      double Stddev = 1.0);

  /// Creates a matrix with i.i.d. uniform entries in [Lo, Hi).
  static Matrix uniform(size_t Rows, size_t Cols, support::Rng &Rng,
                        double Lo, double Hi);

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }
  size_t size() const { return NumRows * NumCols; }
  bool empty() const { return size() == 0; }

  double &at(size_t R, size_t C) {
    assert(R < NumRows && C < NumCols && "matrix index out of range");
    return Data[R * NumCols + C];
  }
  double at(size_t R, size_t C) const {
    assert(R < NumRows && C < NumCols && "matrix index out of range");
    return Data[R * NumCols + C];
  }

  /// Flat access in row-major order.
  double &flat(size_t I) {
    assert(I < size() && "flat index out of range");
    return Data[I];
  }
  double flat(size_t I) const {
    assert(I < size() && "flat index out of range");
    return Data[I];
  }

  double *data() { return Data.data(); }
  const double *data() const { return Data.data(); }

  double *rowPtr(size_t R) { return Data.data() + R * NumCols; }
  const double *rowPtr(size_t R) const { return Data.data() + R * NumCols; }

  /// Reinterprets the storage with a new shape; element count must match.
  /// The rvalue overload moves the storage instead of copying it, so
  /// chains like matmul(...).reshaped(...) are shape-relabels, not copies.
  Matrix reshaped(size_t Rows, size_t Cols) const &;
  Matrix reshaped(size_t Rows, size_t Cols) &&;

  /// Returns the transpose.
  Matrix transposed() const;

  /// Returns rows [R0, R1) as a new matrix.
  Matrix rowSlice(size_t R0, size_t R1) const;

  /// Returns columns [C0, C1) as a new matrix.
  Matrix colSlice(size_t C0, size_t C1) const;

  /// Copies \p Src into this matrix starting at (R0, C0).
  void setBlock(size_t R0, size_t C0, const Matrix &Src);

  /// Appends the rows of \p Src; column counts must match (or this empty).
  void appendRows(const Matrix &Src);

  /// Appends \p Count zero rows.
  void appendZeroRows(size_t Count);

  // In-place arithmetic.
  Matrix &operator+=(const Matrix &O);
  Matrix &operator-=(const Matrix &O);
  Matrix &operator*=(double S);

  /// In-place elementwise (Hadamard) product.
  Matrix &hadamardInPlace(const Matrix &O);

  /// Adds S * O to this matrix.
  void addScaled(const Matrix &O, double S);

  /// Applies \p Fn to every element in place. The std::function overload
  /// stays for callers that store the function (the autograd tape); hot
  /// paths use the templated applyFn below, which inlines the functor
  /// and run large matrices through the thread pool.
  void apply(const std::function<double(double)> &Fn);

  /// Returns a copy with \p Fn applied to every element.
  Matrix map(const std::function<double(double)> &Fn) const;

  /// Templated in-place elementwise map: no std::function indirection, and
  /// parallel over the flat range for large matrices. \p Fn must be pure
  /// (it may run concurrently on disjoint elements).
  template <typename FnT> void applyFn(FnT &&Fn) {
    double *D = Data.data();
    support::parallelFor(0, Data.size(), 32768,
                         [&](size_t I0, size_t I1) {
                           for (size_t I = I0; I < I1; ++I)
                             D[I] = Fn(D[I]);
                         });
  }

  /// Sum of all elements.
  double sum() const;

  /// Maximum absolute element (0 for empty matrices).
  double maxAbs() const;

  /// lp norm of the whole matrix viewed as a flat vector. P must be >= 1 or
  /// the infinity norm via Matrix::InfNorm.
  double lpNorm(double P) const;

  /// Sentinel value selecting the infinity norm in lpNorm / rowLpNorms.
  static constexpr double InfNorm = -1.0;

  /// lp norm of each row; returns an Nx1 column of norms.
  Matrix rowLpNorms(double P) const;

  /// Mean of each row; returns an Nx1 column.
  Matrix rowMeans() const;

  /// Index of the largest element of a vector-shaped matrix.
  size_t argmax() const;

private:
  /// Row range [R0, R1) of rowLpNorms into \p Out (the parallel chunk
  /// body).
  void rowLpNormsRange(double P, Matrix &Out, size_t R0, size_t R1) const;

  size_t NumRows = 0;
  size_t NumCols = 0;
  std::vector<double, detail::NoInitAllocator<double>> Data;
};

/// C = A * B.
Matrix matmul(const Matrix &A, const Matrix &B);

/// C = A * B where A's storage is reinterpreted as ARows x ACols (element
/// count must match A.size()). Bit-identical to
/// matmul(A.reshaped(ARows, ACols), B) without materialising the reshaped
/// copy -- the GEMM only ever reads A through row pointers.
Matrix matmulReshaped(const Matrix &A, size_t ARows, size_t ACols,
                      const Matrix &B);

/// C = A * B^T (B is used transposed without materialising it).
Matrix matmulTransposedB(const Matrix &A, const Matrix &B);

/// C = A^T * B.
Matrix matmulTransposedA(const Matrix &A, const Matrix &B);

Matrix operator+(Matrix A, const Matrix &B);
Matrix operator-(Matrix A, const Matrix &B);
Matrix operator*(Matrix A, double S);
Matrix operator*(double S, Matrix A);

/// Elementwise product.
Matrix hadamard(Matrix A, const Matrix &B);

/// Row-wise numerically stable softmax.
Matrix rowSoftmax(const Matrix &A);

/// Broadcast-adds row vector \p Row (1xC) to every row of \p A.
Matrix addRowBroadcast(Matrix A, const Matrix &Row);

/// Returns the dual exponent q of lp: 1/p + 1/q = 1. P may be
/// Matrix::InfNorm (meaning p = infinity, so q = 1); p = 1 yields q = inf.
double dualExponent(double P);

/// True when every element of A and B differs by at most Tol.
bool allClose(const Matrix &A, const Matrix &B, double Tol);

} // namespace tensor
} // namespace deept

#endif // DEEPT_TENSOR_MATRIX_H
