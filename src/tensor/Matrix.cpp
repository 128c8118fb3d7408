//===- tensor/Matrix.cpp --------------------------------------*- C++ -*-===//

#include "tensor/Matrix.h"

#include "support/Metrics.h"
#include "tensor/Kernels.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace deept;
using namespace deept::tensor;

#if defined(__GLIBC__)
namespace {
/// The process heap policy (DESIGN.md "Heap policy"). Coefficient planes
/// are allocated and freed by the hundred megabytes per radius probe;
/// glibc's adaptive policy keeps trimming that memory back to the kernel
/// and faulting it in zero-filled again. This pins glibc's own 64-bit
/// ceiling for the dynamic mmap threshold (32 MiB) as both the mmap and
/// the trim threshold, and keeps one arena so pool workers reuse each
/// other's freed blocks instead of each growing a private heap. It runs
/// during static initialization, before any pool thread exists.
struct HeapPolicy {
  HeapPolicy() {
    constexpr int Threshold = 32 << 20;
    mallopt(M_ARENA_MAX, 1);
    mallopt(M_MMAP_THRESHOLD, Threshold);
    mallopt(M_TRIM_THRESHOLD, Threshold);
  }
};
const HeapPolicy TheHeapPolicy;
} // namespace
#endif

Matrix::Matrix(size_t Rows, size_t Cols, double Fill)
    : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, Fill) {}

Matrix Matrix::uninit(size_t Rows, size_t Cols) {
  Matrix M;
  M.NumRows = Rows;
  M.NumCols = Cols;
  // Default-insertion through NoInitAllocator: no zero-fill.
  M.Data.resize(Rows * Cols);
  return M;
}

Matrix Matrix::fromRows(const std::vector<std::vector<double>> &RowData) {
  if (RowData.empty())
    return Matrix();
  Matrix M(RowData.size(), RowData.front().size());
  for (size_t R = 0; R < RowData.size(); ++R) {
    assert(RowData[R].size() == M.NumCols && "ragged row data");
    std::copy(RowData[R].begin(), RowData[R].end(), M.rowPtr(R));
  }
  return M;
}

Matrix Matrix::rowVector(const std::vector<double> &Values) {
  Matrix M(1, Values.size());
  std::copy(Values.begin(), Values.end(), M.data());
  return M;
}

Matrix Matrix::identity(size_t N) {
  Matrix M(N, N);
  for (size_t I = 0; I < N; ++I)
    M.at(I, I) = 1.0;
  return M;
}

Matrix Matrix::randn(size_t Rows, size_t Cols, support::Rng &Rng,
                     double Stddev) {
  Matrix M(Rows, Cols);
  for (size_t I = 0; I < M.size(); ++I)
    M.Data[I] = Rng.gaussian(0.0, Stddev);
  return M;
}

Matrix Matrix::uniform(size_t Rows, size_t Cols, support::Rng &Rng, double Lo,
                       double Hi) {
  Matrix M(Rows, Cols);
  for (size_t I = 0; I < M.size(); ++I)
    M.Data[I] = Rng.uniform(Lo, Hi);
  return M;
}

Matrix Matrix::reshaped(size_t Rows, size_t Cols) const & {
  assert(Rows * Cols == size() && "reshape must preserve element count");
  Matrix M = *this;
  M.NumRows = Rows;
  M.NumCols = Cols;
  return M;
}

Matrix Matrix::reshaped(size_t Rows, size_t Cols) && {
  assert(Rows * Cols == size() && "reshape must preserve element count");
  Matrix M = std::move(*this);
  M.NumRows = Rows;
  M.NumCols = Cols;
  return M;
}

Matrix Matrix::transposed() const {
  Matrix T = Matrix::uninit(NumCols, NumRows);
  for (size_t R = 0; R < NumRows; ++R)
    for (size_t C = 0; C < NumCols; ++C)
      T.at(C, R) = at(R, C);
  return T;
}

Matrix Matrix::rowSlice(size_t R0, size_t R1) const {
  assert(R0 <= R1 && R1 <= NumRows && "row slice out of range");
  Matrix M = Matrix::uninit(R1 - R0, NumCols);
  std::memcpy(M.data(), rowPtr(R0), (R1 - R0) * NumCols * sizeof(double));
  return M;
}

Matrix Matrix::colSlice(size_t C0, size_t C1) const {
  assert(C0 <= C1 && C1 <= NumCols && "col slice out of range");
  Matrix M = Matrix::uninit(NumRows, C1 - C0);
  for (size_t R = 0; R < NumRows; ++R)
    std::memcpy(M.rowPtr(R), rowPtr(R) + C0, (C1 - C0) * sizeof(double));
  return M;
}

void Matrix::setBlock(size_t R0, size_t C0, const Matrix &Src) {
  assert(R0 + Src.NumRows <= NumRows && C0 + Src.NumCols <= NumCols &&
         "block does not fit");
  for (size_t R = 0; R < Src.NumRows; ++R)
    std::memcpy(rowPtr(R0 + R) + C0, Src.rowPtr(R),
                Src.NumCols * sizeof(double));
}

void Matrix::appendRows(const Matrix &Src) {
  if (Src.empty() && Src.NumRows == 0)
    return;
  if (empty() && NumRows == 0 && NumCols == 0)
    NumCols = Src.NumCols;
  assert(Src.NumCols == NumCols && "appendRows column mismatch");
  Data.insert(Data.end(), Src.Data.begin(), Src.Data.end());
  NumRows += Src.NumRows;
}

void Matrix::appendZeroRows(size_t Count) {
  Data.insert(Data.end(), Count * NumCols, 0.0);
  NumRows += Count;
}

Matrix &Matrix::operator+=(const Matrix &O) {
  assert(NumRows == O.NumRows && NumCols == O.NumCols && "shape mismatch");
  double *D = Data.data();
  const double *S = O.Data.data();
  // Elementwise with disjoint chunks: identical bits at any thread count.
  support::parallelFor(0, Data.size(), 32768, [&](size_t I0, size_t I1) {
    for (size_t I = I0; I < I1; ++I)
      D[I] += S[I];
  });
  return *this;
}

Matrix &Matrix::operator-=(const Matrix &O) {
  assert(NumRows == O.NumRows && NumCols == O.NumCols && "shape mismatch");
  double *D = Data.data();
  const double *S = O.Data.data();
  support::parallelFor(0, Data.size(), 32768, [&](size_t I0, size_t I1) {
    for (size_t I = I0; I < I1; ++I)
      D[I] -= S[I];
  });
  return *this;
}

Matrix &Matrix::operator*=(double S) {
  for (double &V : Data)
    V *= S;
  return *this;
}

Matrix &Matrix::hadamardInPlace(const Matrix &O) {
  assert(NumRows == O.NumRows && NumCols == O.NumCols && "shape mismatch");
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] *= O.Data[I];
  return *this;
}

void Matrix::addScaled(const Matrix &O, double S) {
  assert(NumRows == O.NumRows && NumCols == O.NumCols && "shape mismatch");
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] += S * O.Data[I];
}

void Matrix::apply(const std::function<double(double)> &Fn) {
  for (double &V : Data)
    V = Fn(V);
}

Matrix Matrix::map(const std::function<double(double)> &Fn) const {
  Matrix M = *this;
  M.apply(Fn);
  return M;
}

double Matrix::sum() const {
  double S = 0.0;
  for (double V : Data)
    S += V;
  return S;
}

double Matrix::maxAbs() const {
  double M = 0.0;
  for (double V : Data)
    M = std::max(M, std::fabs(V));
  return M;
}

double Matrix::lpNorm(double P) const {
  if (P == InfNorm)
    return maxAbs();
  assert(P >= 1.0 && "lp norms need p >= 1");
  if (P == 1.0) {
    double S = 0.0;
    for (double V : Data)
      S += std::fabs(V);
    return S;
  }
  if (P == 2.0) {
    double S = 0.0;
    for (double V : Data)
      S += V * V;
    return std::sqrt(S);
  }
  double S = 0.0;
  for (double V : Data)
    S += std::pow(std::fabs(V), P);
  return std::pow(S, 1.0 / P);
}

Matrix Matrix::rowLpNorms(double P) const {
  Matrix Out(NumRows, 1);
  support::parallelFor(
      0, NumRows, support::grainForWork(NumCols),
      [&](size_t R0, size_t R1) { rowLpNormsRange(P, Out, R0, R1); });
  return Out;
}

void Matrix::rowLpNormsRange(double P, Matrix &Out, size_t R0,
                             size_t R1) const {
  for (size_t R = R0; R < R1; ++R) {
    const double *Row = rowPtr(R);
    double S = 0.0;
    if (P == InfNorm) {
      for (size_t C = 0; C < NumCols; ++C)
        S = std::max(S, std::fabs(Row[C]));
    } else if (P == 1.0) {
      for (size_t C = 0; C < NumCols; ++C)
        S += std::fabs(Row[C]);
    } else if (P == 2.0) {
      for (size_t C = 0; C < NumCols; ++C)
        S += Row[C] * Row[C];
      S = std::sqrt(S);
    } else {
      assert(P >= 1.0 && "lp norms need p >= 1");
      for (size_t C = 0; C < NumCols; ++C)
        S += std::pow(std::fabs(Row[C]), P);
      S = std::pow(S, 1.0 / P);
    }
    Out.at(R, 0) = S;
  }
}

Matrix Matrix::rowMeans() const {
  assert(NumCols > 0 && "rowMeans of empty rows");
  Matrix Out(NumRows, 1);
  support::parallelFor(0, NumRows, support::grainForWork(NumCols),
                       [&](size_t R0, size_t R1) {
                         for (size_t R = R0; R < R1; ++R) {
                           const double *Row = rowPtr(R);
                           double S = 0.0;
                           for (size_t C = 0; C < NumCols; ++C)
                             S += Row[C];
                           Out.at(R, 0) =
                               S / static_cast<double>(NumCols);
                         }
                       });
  return Out;
}

size_t Matrix::argmax() const {
  assert(!empty() && "argmax of empty matrix");
  size_t Best = 0;
  for (size_t I = 1; I < size(); ++I)
    if (Data[I] > Data[Best])
      Best = I;
  return Best;
}

namespace {

/// Cache tile over the contraction axis: a GemmKBlock x Cols panel of B
/// stays resident while every output row in a chunk accumulates against
/// it. Per output element the contraction still runs in ascending-k
/// order (blocks ascend, k ascends within a block), so tiled results are
/// bit-identical to the naive ikj kernel.
constexpr size_t GemmKBlock = 128;

/// Register-blocked output rows of the matmul kernel: four C rows share
/// each loaded B row, and the compiler vectorizes the branch-free inner
/// loop.
constexpr size_t GemmRowBlock = 4;

/// Scalar mul-adds below which a GEMM runs serially; pool dispatch and
/// the gemm.tile_ms observation only pay off above it.
constexpr size_t GemmParallelFlops = 64 * 1024;

bool allZero(const double *P, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (P[I] != 0.0)
      return false;
  return true;
}

/// Observes one parallel GEMM's wall time into the gemm.tile_ms
/// histogram (serial small GEMMs skip the mutex entirely).
class GemmTimeScope {
public:
  explicit GemmTimeScope(bool Active) : Active(Active) {}
  ~GemmTimeScope() {
    if (Active) {
      // Looked up per observation (not cached in a static) so a setIsa
      // switch lands subsequent observations in the right per-ISA series.
      support::Metrics::global()
          .histogram(std::string("gemm.tile_ms.") + isaName(currentIsa()))
          .observe(T.seconds() * 1e3);
    }
  }

private:
  bool Active;
  support::Timer T;
};

/// Rows [R0, R1) of C = A * B, K-tiled with GemmRowBlock-row register
/// blocking. The inner loops are branch-free on dense data; sparsity is
/// skipped only at block granularity (a whole A row-group slice of zeros,
/// the common shape for fresh-noise-symbol coefficient rows).
void matmulRowRange(const double *AData, size_t K, const Matrix &B, Matrix &C,
                    size_t R0, size_t R1) {
  size_t M = B.cols();
  for (size_t Kb = 0; Kb < K; Kb += GemmKBlock) {
    size_t KEnd = std::min(K, Kb + GemmKBlock);
    for (size_t I0 = R0; I0 < R1; I0 += GemmRowBlock) {
      size_t IEnd = std::min(R1, I0 + GemmRowBlock);
      bool BlockZero = true;
      for (size_t I = I0; I < IEnd && BlockZero; ++I)
        BlockZero = allZero(AData + I * K + Kb, KEnd - Kb);
      if (BlockZero)
        continue;
      const Kernels &KT = kernels();
      if (IEnd - I0 == GemmRowBlock) {
        double *C0 = C.rowPtr(I0), *C1 = C.rowPtr(I0 + 1);
        double *C2 = C.rowPtr(I0 + 2), *C3 = C.rowPtr(I0 + 3);
        const double *A0 = AData + I0 * K, *A1 = A0 + K;
        const double *A2 = A1 + K, *A3 = A2 + K;
        KT.Axpy4K(A0, A1, A2, A3, Kb, KEnd, B.data(), C0, C1, C2, C3, M);
      } else {
        for (size_t I = I0; I < IEnd; ++I) {
          double *CRow = C.rowPtr(I);
          const double *ARow = AData + I * K;
          for (size_t Kk = Kb; Kk < KEnd; ++Kk)
            KT.Axpy(ARow[Kk], B.rowPtr(Kk), CRow, M);
        }
      }
    }
  }
}

} // namespace

Matrix deept::tensor::matmulReshaped(const Matrix &A, size_t ARows,
                                     size_t ACols, const Matrix &B) {
  assert(ARows * ACols == A.size() && "reshape must preserve element count");
  assert(ACols == B.rows() && "matmul shape mismatch");
  Matrix C(ARows, B.cols());
  size_t RowWork = ACols * B.cols();
  bool Parallel = ARows * RowWork >= GemmParallelFlops &&
                  !support::ThreadPool::inParallelRegion();
  GemmTimeScope Scope(Parallel);
  support::parallelFor(0, ARows, support::grainForWork(RowWork),
                       [&](size_t R0, size_t R1) {
                         matmulRowRange(A.data(), ACols, B, C, R0, R1);
                       });
  return C;
}

Matrix deept::tensor::matmul(const Matrix &A, const Matrix &B) {
  return matmulReshaped(A, A.rows(), A.cols(), B);
}

Matrix deept::tensor::matmulTransposedB(const Matrix &A, const Matrix &B) {
  assert(A.cols() == B.cols() && "matmulTransposedB shape mismatch");
  // The kernel writes every output row (zero rows of A are zero-filled
  // when not accumulating), so C can skip its own fill.
  Matrix C = Matrix::uninit(A.rows(), B.rows());
  size_t K = A.cols(), M = B.rows();
  size_t RowWork = K * M;
  bool Parallel = A.rows() * RowWork >= GemmParallelFlops &&
                  !support::ThreadPool::inParallelRegion();
  GemmTimeScope Scope(Parallel);
  // Dot-product form, dispatched through the kernel table: four B rows
  // share each loaded A element with lane-ordered accumulation per output.
  support::parallelFor(
      0, A.rows(), support::grainForWork(RowWork), [&](size_t R0, size_t R1) {
        kernels().DotPlanesTransposedB(A.rowPtr(R0), 0, R1 - R0, B.rowPtr(0),
                                       0, M, K, /*S=*/1, C.rowPtr(R0), 0,
                                       /*Accumulate=*/false, /*Pack=*/nullptr);
      });
  return C;
}

Matrix deept::tensor::matmulTransposedA(const Matrix &A, const Matrix &B) {
  assert(A.rows() == B.rows() && "matmulTransposedA shape mismatch");
  size_t K = A.rows(), N = A.cols(), M = B.cols();
  Matrix C(N, M);
  size_t RowWork = K * M;
  bool Parallel = N * RowWork >= GemmParallelFlops &&
                  !support::ThreadPool::inParallelRegion();
  GemmTimeScope Scope(Parallel);
  // Output-row parallel: C row I accumulates column I of A against every
  // row of B, K-tiled so the B panel is reused across the strided A
  // column reads. Ascending-k order per element keeps results identical
  // at any thread count.
  support::parallelFor(
      0, N, support::grainForWork(RowWork), [&](size_t R0, size_t R1) {
        for (size_t Kb = 0; Kb < K; Kb += GemmKBlock) {
          size_t KEnd = std::min(K, Kb + GemmKBlock);
          for (size_t I = R0; I < R1; ++I) {
            double *CRow = C.rowPtr(I);
            bool ColZero = true;
            for (size_t Kk = Kb; Kk < KEnd && ColZero; ++Kk)
              ColZero = A.at(Kk, I) == 0.0;
            if (ColZero)
              continue;
            for (size_t Kk = Kb; Kk < KEnd; ++Kk) {
              double AV = A.at(Kk, I);
              const double *BRow = B.rowPtr(Kk);
              for (size_t J = 0; J < M; ++J)
                CRow[J] += AV * BRow[J];
            }
          }
        }
      });
  return C;
}

Matrix deept::tensor::operator+(Matrix A, const Matrix &B) {
  A += B;
  return A;
}

Matrix deept::tensor::operator-(Matrix A, const Matrix &B) {
  A -= B;
  return A;
}

Matrix deept::tensor::operator*(Matrix A, double S) {
  A *= S;
  return A;
}

Matrix deept::tensor::operator*(double S, Matrix A) {
  A *= S;
  return A;
}

Matrix deept::tensor::hadamard(Matrix A, const Matrix &B) {
  A.hadamardInPlace(B);
  return A;
}

Matrix deept::tensor::rowSoftmax(const Matrix &A) {
  Matrix Out(A.rows(), A.cols());
  for (size_t R = 0; R < A.rows(); ++R) {
    const double *Row = A.rowPtr(R);
    double *ORow = Out.rowPtr(R);
    double Max = Row[0];
    for (size_t C = 1; C < A.cols(); ++C)
      Max = std::max(Max, Row[C]);
    double Sum = 0.0;
    for (size_t C = 0; C < A.cols(); ++C) {
      ORow[C] = std::exp(Row[C] - Max);
      Sum += ORow[C];
    }
    for (size_t C = 0; C < A.cols(); ++C)
      ORow[C] /= Sum;
  }
  return Out;
}

Matrix deept::tensor::addRowBroadcast(Matrix A, const Matrix &Row) {
  assert(Row.rows() == 1 && Row.cols() == A.cols() && "broadcast mismatch");
  for (size_t R = 0; R < A.rows(); ++R) {
    double *ARow = A.rowPtr(R);
    for (size_t C = 0; C < A.cols(); ++C)
      ARow[C] += Row.at(0, C);
  }
  return A;
}

double deept::tensor::dualExponent(double P) {
  if (P == Matrix::InfNorm)
    return 1.0;
  assert(P >= 1.0 && "invalid norm exponent");
  if (P == 1.0)
    return Matrix::InfNorm;
  return P / (P - 1.0);
}

bool deept::tensor::allClose(const Matrix &A, const Matrix &B, double Tol) {
  if (A.rows() != B.rows() || A.cols() != B.cols())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (std::fabs(A.flat(I) - B.flat(I)) > Tol)
      return false;
  return true;
}
