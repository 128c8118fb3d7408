//===- zono/Zonotope.cpp --------------------------------------*- C++ -*-===//

#include "zono/Zonotope.h"

#include "zono/Provenance.h"

#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "tensor/Kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

using namespace deept;
using namespace deept::zono;
using support::grainForWork;
using support::parallelFor;
using tensor::dualExponent;

namespace {

/// Accumulates, per variable (column), the dual-norm of the coefficient
/// columns of \p Coeffs. Q follows Matrix::InfNorm conventions. Parallel
/// over variable ranges; each variable accumulates its symbol axis in
/// ascending order, so results are thread-count independent.
Matrix columnDualNorms(const Matrix &Coeffs, double Q, size_t NumVars) {
  Matrix Out(1, NumVars, 0.0);
  double *O = Out.data();
  size_t NumS = Coeffs.rows();
  parallelFor(0, NumVars, support::reductionGrain(NumVars),
              [&](size_t V0, size_t V1) {
    const tensor::Kernels &K = tensor::kernels();
    if (Q == 1.0) {
      for (size_t S = 0; S < NumS; ++S)
        K.AccAbs(Coeffs.rowPtr(S) + V0, O + V0, V1 - V0);
      return;
    }
    if (Q == 2.0) {
      for (size_t S = 0; S < NumS; ++S)
        K.AccSq(Coeffs.rowPtr(S) + V0, O + V0, V1 - V0);
      for (size_t V = V0; V < V1; ++V)
        O[V] = std::sqrt(O[V]);
      return;
    }
    assert(Q == Matrix::InfNorm && "unsupported dual exponent");
    for (size_t S = 0; S < NumS; ++S)
      K.AccMaxAbs(Coeffs.rowPtr(S) + V0, O + V0, V1 - V0);
  });
  return Out;
}

/// Applies a view-level linear map \p Fn to every row of a symbol-major
/// coefficient block (each row reinterpreted as an R x C view), writing the
/// flattened images into a fresh Syms x NewVars matrix. This is the dense
/// fallback path of the structure-preserving transformers; it reproduces
/// the old per-symbol mapLinear loop exactly (parallel over symbols with
/// disjoint output rows).
template <typename FnT>
Matrix denseRowwise(const Matrix &Blk, size_t R, size_t C, size_t NewVars,
                    const FnT &Fn) {
  // Every row is fully written by the std::copy below, so skip the fill.
  Matrix Out = Matrix::uninit(Blk.rows(), NewVars);
  parallelFor(0, Blk.rows(), grainForWork(2 * R * C),
              [&](size_t S0, size_t S1) {
                for (size_t S = S0; S < S1; ++S) {
                  Matrix Mapped = Fn(Blk.rowSlice(S, S + 1).reshaped(R, C));
                  std::copy(Mapped.data(), Mapped.data() + Mapped.size(),
                            Out.rowPtr(S));
                }
              });
  return Out;
}

/// Pointer-level variant of denseRowwise for the hot affine transformers:
/// \p Fn reads one symbol row (the old flattened view) and writes its
/// image directly, with no per-row Matrix temporaries. With \p ZeroInit
/// (the default) the output starts zero-filled so Fn may write sparsely;
/// transformers whose Fn fully overwrites each output row pass false and
/// skip the fill. \p Work estimates the per-row cost for the parallel
/// grain.
template <typename FnT>
Matrix denseRowwisePtr(const Matrix &Blk, size_t Work, size_t NewVars,
                       const FnT &Fn, bool ZeroInit = true) {
  Matrix Out = ZeroInit ? Matrix(Blk.rows(), NewVars)
                        : Matrix::uninit(Blk.rows(), NewVars);
  parallelFor(0, Blk.rows(), grainForWork(Work), [&](size_t S0, size_t S1) {
    for (size_t S = S0; S < S1; ++S)
      Fn(Blk.rowPtr(S), Out.rowPtr(S));
  });
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Block storage plumbing
//===----------------------------------------------------------------------===//

void Zonotope::densifyEps() const {
  if (EpsTail.empty())
    return;
  static support::Counter &Densified =
      support::Metrics::global().counter("zono.densify_count");
  Densified.add(1.0);
  size_t N = numVars();
  if (EpsDense.cols() != N) {
    assert(EpsDense.rows() == 0 && "dense block with wrong column count");
    EpsDense = Matrix(0, N);
  }
  size_t S = EpsDense.rows();
  EpsDense.appendZeroRows(TailSyms);
  for (const EpsBlock &B : EpsTail) {
    switch (B.Kind) {
    case EpsBlockKind::Zero:
      S += B.ZeroSyms;
      break;
    case EpsBlockKind::Diag:
      for (const auto &E : B.Entries) {
        if (E.second != 0.0)
          EpsDense.at(S, E.first) = E.second;
        ++S;
      }
      break;
    case EpsBlockKind::Dense:
      for (size_t R = 0; R < B.D.rows(); ++R, ++S)
        std::copy(B.D.rowPtr(R), B.D.rowPtr(R) + N, EpsDense.rowPtr(S));
      break;
    }
  }
  EpsTail.clear();
  TailSyms = 0;
}

void Zonotope::installEpsBlocks(std::deque<EpsBlock> Blocks) {
  EpsTail.clear();
  TailSyms = 0;
  if (!Blocks.empty() && Blocks.front().Kind == EpsBlockKind::Dense) {
    EpsDense = std::move(Blocks.front().D);
    Blocks.pop_front();
  } else {
    EpsDense = Matrix(0, numVars());
  }
  for (const EpsBlock &B : Blocks)
    TailSyms += B.syms();
  EpsTail = std::move(Blocks);
}

std::vector<EpsBlockView> Zonotope::epsBlockViews() const {
  std::vector<EpsBlockView> Views;
  Views.reserve(EpsTail.size() + 1);
  size_t Start = 0;
  if (EpsDense.rows() > 0) {
    EpsBlockView V;
    V.Kind = EpsBlockKind::Dense;
    V.Start = 0;
    V.Syms = EpsDense.rows();
    V.Dense = &EpsDense;
    Views.push_back(V);
    Start = EpsDense.rows();
  }
  for (const EpsBlock &B : EpsTail) {
    EpsBlockView V;
    V.Kind = B.Kind;
    V.Start = Start;
    V.Syms = B.syms();
    if (B.Kind == EpsBlockKind::Dense)
      V.Dense = &B.D;
    else if (B.Kind == EpsBlockKind::Diag)
      V.Entries = B.Entries.data();
    Views.push_back(V);
    Start += V.Syms;
  }
  return Views;
}

double Zonotope::epsStructuredFraction() const {
  size_t Total = numEps();
  if (Total == 0)
    return 0.0;
  size_t Structured = 0;
  for (const EpsBlock &B : EpsTail)
    if (B.Kind != EpsBlockKind::Dense)
      Structured += B.syms();
  return static_cast<double>(Structured) / static_cast<double>(Total);
}

size_t Zonotope::coeffBytes() const {
  size_t Bytes =
      (PhiC.size() + EpsDense.size() + Center.size()) * sizeof(double);
  for (const EpsBlock &B : EpsTail) {
    Bytes += sizeof(EpsBlock);
    switch (B.Kind) {
    case EpsBlockKind::Dense:
      Bytes += B.D.size() * sizeof(double);
      break;
    case EpsBlockKind::Diag:
      Bytes += B.Entries.size() * sizeof(std::pair<size_t, double>);
      break;
    case EpsBlockKind::Zero:
      break;
    }
  }
  return Bytes;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

Zonotope Zonotope::constant(const Matrix &Center, double PhiP) {
  Zonotope Z;
  Z.NumRows = Center.rows();
  Z.NumCols = Center.cols();
  Z.Center = Center;
  Z.PhiP = PhiP;
  Z.PhiC = Matrix(0, Z.numVars());
  Z.EpsDense = Matrix(0, Z.numVars());
  return Z;
}

Zonotope Zonotope::lpBallOnRow(const Matrix &Center, size_t Row, double P,
                               double Radius) {
  assert(Row < Center.rows() && "perturbed row out of range");
  Zonotope Z = constant(Center, P == Matrix::InfNorm ? Matrix::InfNorm : P);
  size_t E = Center.cols();
  if (P == Matrix::InfNorm) {
    EpsBlock B;
    B.Kind = EpsBlockKind::Diag;
    B.Entries.reserve(E);
    for (size_t I = 0; I < E; ++I)
      B.Entries.emplace_back(Row * E + I, Radius);
    Z.TailSyms = E;
    Z.EpsTail.push_back(std::move(B));
  } else {
    Matrix Coeffs(E, Z.numVars());
    for (size_t I = 0; I < E; ++I)
      Coeffs.at(I, Row * E + I) = Radius;
    Z.PhiC = Coeffs;
  }
  return Z;
}

Zonotope Zonotope::lpBall(const Matrix &Center, double P, double Radius) {
  Zonotope Z = constant(Center, P == Matrix::InfNorm ? Matrix::InfNorm : P);
  size_t N = Z.numVars();
  if (P == Matrix::InfNorm) {
    EpsBlock B;
    B.Kind = EpsBlockKind::Diag;
    B.Entries.reserve(N);
    for (size_t I = 0; I < N; ++I)
      B.Entries.emplace_back(I, Radius);
    Z.TailSyms = N;
    Z.EpsTail.push_back(std::move(B));
  } else {
    Matrix Coeffs(N, N);
    for (size_t I = 0; I < N; ++I)
      Coeffs.at(I, I) = Radius;
    Z.PhiC = Coeffs;
  }
  return Z;
}

Zonotope Zonotope::box(const Matrix &Lo, const Matrix &Hi) {
  assert(Lo.rows() == Hi.rows() && Lo.cols() == Hi.cols() &&
         "box corner shape mismatch");
  Matrix Center = (Lo + Hi) * 0.5;
  Zonotope Z = constant(Center, Matrix::InfNorm);
  std::vector<std::pair<size_t, double>> Entries;
  for (size_t V = 0; V < Z.numVars(); ++V) {
    double Rad = 0.5 * (Hi.flat(V) - Lo.flat(V));
    assert(Rad >= 0.0 && "box with Lo > Hi");
    if (Rad > 0.0)
      Entries.emplace_back(V, Rad);
  }
  Z.appendFreshEps(Entries);
  return Z;
}

//===----------------------------------------------------------------------===//
// Bounds
//===----------------------------------------------------------------------===//

Matrix Zonotope::epsColumnDualNorms(double Q) const {
  size_t N = numVars();
  Matrix Out(1, N, 0.0);
  double *O = Out.data();
  // Block-wise accumulation with zero skipping: blocks are visited in
  // symbol order and dense rows accumulate ascending, so each variable
  // sees exactly the nonzero terms of the dense kernel in the same order
  // (the skipped terms are +0.0 adds / max-with-0, which are identities
  // on the nonnegative accumulator).
  auto DenseAcc = [&](const Matrix &Blk) {
    size_t NumS = Blk.rows();
    if (NumS == 0)
      return;
    parallelFor(0, N, support::reductionGrain(N), [&](size_t V0, size_t V1) {
      const tensor::Kernels &K = tensor::kernels();
      if (Q == 1.0) {
        for (size_t S = 0; S < NumS; ++S)
          K.AccAbs(Blk.rowPtr(S) + V0, O + V0, V1 - V0);
      } else if (Q == 2.0) {
        for (size_t S = 0; S < NumS; ++S)
          K.AccSq(Blk.rowPtr(S) + V0, O + V0, V1 - V0);
      } else {
        assert(Q == Matrix::InfNorm && "unsupported dual exponent");
        for (size_t S = 0; S < NumS; ++S)
          K.AccMaxAbs(Blk.rowPtr(S) + V0, O + V0, V1 - V0);
      }
    });
  };
  DenseAcc(EpsDense);
  for (const EpsBlock &B : EpsTail) {
    switch (B.Kind) {
    case EpsBlockKind::Zero:
      break;
    case EpsBlockKind::Dense:
      DenseAcc(B.D);
      break;
    case EpsBlockKind::Diag:
      for (const auto &E : B.Entries) {
        if (E.second == 0.0)
          continue;
        if (Q == 1.0)
          O[E.first] += std::fabs(E.second);
        else if (Q == 2.0)
          O[E.first] += E.second * E.second;
        else
          O[E.first] = std::max(O[E.first], std::fabs(E.second));
      }
      break;
    }
  }
  if (Q == 2.0)
    parallelFor(0, N, 16384, [&](size_t V0, size_t V1) {
      for (size_t V = V0; V < V1; ++V)
        O[V] = std::sqrt(O[V]);
    });
  return Out;
}

void Zonotope::bounds(Matrix &Lo, Matrix &Hi) const {
  Matrix Rad = radii();
  Lo = Matrix(NumRows, NumCols);
  Hi = Matrix(NumRows, NumCols);
  for (size_t V = 0; V < numVars(); ++V) {
    Lo.flat(V) = Center.flat(V) - Rad.flat(V);
    Hi.flat(V) = Center.flat(V) + Rad.flat(V);
  }
}

Matrix Zonotope::phiColumnDualNorms() const {
  return columnDualNorms(PhiC, dualExponent(PhiP), numVars());
}

Matrix Zonotope::radii() const {
  double Q = dualExponent(PhiP);
  Matrix PhiNorm = columnDualNorms(PhiC, Q, numVars());
  Matrix EpsNorm = epsColumnDualNorms(1.0);
  Matrix Rad(NumRows, NumCols);
  for (size_t V = 0; V < numVars(); ++V)
    Rad.flat(V) = PhiNorm.flat(V) + EpsNorm.flat(V);
  return Rad;
}

//===----------------------------------------------------------------------===//
// Affine transformers
//===----------------------------------------------------------------------===//

Zonotope Zonotope::add(const Zonotope &O) const & {
  Zonotope A = *this;
  return std::move(A).add(O);
}

Zonotope Zonotope::add(const Zonotope &O) && {
  assert(&O != this && "in-place add cannot alias its operand");
  assert(NumRows == O.NumRows && NumCols == O.NumCols && "shape mismatch");
  assert(PhiP == O.PhiP && "phi norm mismatch");
  size_t N = numVars();
  Center += O.Center;
  // Phi plane: O's missing trailing symbols are zero rows, so only O's
  // actual rows are added (adding a literal zero row is the identity up
  // to the sign of zero).
  padPhiTo(std::max(numPhi(), O.numPhi()));
  if (O.numPhi() > 0) {
    const Matrix &BP = O.PhiC;
    parallelFor(0, O.numPhi(), grainForWork(N), [&](size_t S0, size_t S1) {
      // Axpy with multiplier 1.0 is an exact add per element, so this is
      // bit-identical to the former open-coded AR[V] += BR[V] loop.
      for (size_t S = S0; S < S1; ++S)
        tensor::kernels().Axpy(1.0, BP.rowPtr(S), PhiC.rowPtr(S), N);
    });
  }
  size_t E = std::max(numEps(), O.numEps());
  padEpsTo(E);
  if (E == 0)
    return std::move(*this);
  if (EpsTail.empty() && O.EpsTail.empty() &&
      EpsDense.rows() == O.EpsDense.rows()) {
    EpsDense += O.EpsDense;
    return std::move(*this);
  }
  // Block-wise sum: walk both eps spaces over maximal symbol runs with a
  // constant (kind, kind) pair, using bulk matrix kernels for runs that
  // involve a Dense side. Adding the operands in (this, O) order per
  // element reproduces the dense kernel's A += B exactly; symbols that
  // are zero on one side pass through (again identical up to the sign of
  // zero, which downstream dual norms erase).
  auto RefsA = flattenEpsViews(epsBlockViews(), E);
  auto RefsB = flattenEpsViews(O.epsBlockViews(), E);
  auto RunClass = [&](size_t S) -> int {
    EpsBlockKind KA = RefsA[S].Kind, KB = RefsB[S].Kind;
    if (KA == EpsBlockKind::Zero && KB == EpsBlockKind::Zero)
      return 0; // zero
    if (KA == EpsBlockKind::Dense || KB == EpsBlockKind::Dense ||
        (KA == EpsBlockKind::Diag && KB == EpsBlockKind::Diag &&
         RefsA[S].Entry.first != RefsB[S].Entry.first))
      return 2; // needs a dense row
    return 1;   // diagonal result
  };
  EpsBlockListBuilder Bld(N);
  size_t S = 0;
  while (S < E) {
    int Cls = RunClass(S);
    size_t S1 = S + 1;
    while (S1 < E && RunClass(S1) == Cls)
      ++S1;
    size_t Len = S1 - S;
    if (Cls == 0) {
      Bld.zero(Len);
    } else if (Cls == 1) {
      for (size_t I = S; I < S1; ++I) {
        const EpsSymRef &RA = RefsA[I];
        const EpsSymRef &RB = RefsB[I];
        if (RA.Kind == EpsBlockKind::Zero)
          Bld.diag(RB.Entry.first, RB.Entry.second);
        else if (RB.Kind == EpsBlockKind::Zero)
          Bld.diag(RA.Entry.first, RA.Entry.second);
        else
          Bld.diag(RA.Entry.first, RA.Entry.second + RB.Entry.second);
      }
    } else {
      Matrix Run(Len, N, 0.0);
      parallelFor(0, Len, grainForWork(2 * N), [&](size_t R0, size_t R1) {
        for (size_t R = R0; R < R1; ++R) {
          const EpsSymRef &RA = RefsA[S + R];
          const EpsSymRef &RB = RefsB[S + R];
          double *Out = Run.rowPtr(R);
          if (RA.Kind == EpsBlockKind::Dense)
            std::copy(RA.Row, RA.Row + N, Out);
          else if (RA.Kind == EpsBlockKind::Diag)
            Out[RA.Entry.first] = RA.Entry.second;
          if (RB.Kind == EpsBlockKind::Dense) {
            const double *BR = RB.Row;
            for (size_t V = 0; V < N; ++V)
              Out[V] += BR[V];
          } else if (RB.Kind == EpsBlockKind::Diag) {
            Out[RB.Entry.first] += RB.Entry.second;
          }
        }
      });
      Bld.dense(std::move(Run));
    }
    S = S1;
  }
  installEpsBlocks(Bld.finish());
  return std::move(*this);
}

Zonotope Zonotope::sub(const Zonotope &O) const {
  return add(O.scale(-1.0));
}

Zonotope Zonotope::addConst(const Matrix &C) const & {
  Zonotope Z = *this;
  Z.Center += C;
  return Z;
}

Zonotope Zonotope::addConst(const Matrix &C) && {
  Center += C;
  return std::move(*this);
}

Zonotope Zonotope::scale(double S) const & {
  Zonotope Z = *this;
  return std::move(Z).scale(S);
}

Zonotope Zonotope::scale(double S) && {
  Center *= S;
  PhiC *= S;
  EpsDense *= S;
  for (EpsBlock &B : EpsTail) {
    if (B.Kind == EpsBlockKind::Dense)
      B.D *= S;
    else if (B.Kind == EpsBlockKind::Diag)
      for (auto &E : B.Entries)
        E.second *= S;
  }
  return std::move(*this);
}

template <typename BlockFnT, typename DiagFnT>
Zonotope Zonotope::epsMapDiag(size_t NewRows, size_t NewCols,
                              const BlockFnT &BlockFn,
                              const DiagFnT &DiagFn) const {
  Zonotope Z;
  Z.NumRows = NewRows;
  Z.NumCols = NewCols;
  Z.PhiP = PhiP;
  size_t NewVars = NewRows * NewCols;
  Z.Center = BlockFn(Center.reshaped(1, numVars())).reshaped(NewRows, NewCols);
  Z.PhiC = PhiC.rows() > 0 ? BlockFn(PhiC) : Matrix(0, NewVars);
  Z.EpsDense =
      EpsDense.rows() > 0 ? BlockFn(EpsDense) : Matrix(0, NewVars);
  for (const EpsBlock &B : EpsTail) {
    EpsBlock NB;
    NB.Kind = B.Kind;
    switch (B.Kind) {
    case EpsBlockKind::Zero:
      NB.ZeroSyms = B.ZeroSyms;
      break;
    case EpsBlockKind::Diag:
      NB.Entries.reserve(B.Entries.size());
      for (const auto &E : B.Entries)
        NB.Entries.push_back(E.second == 0.0
                                 ? std::pair<size_t, double>(0, 0.0)
                                 : DiagFn(E));
      break;
    case EpsBlockKind::Dense:
      NB.D = BlockFn(B.D);
      break;
    }
    Z.EpsTail.push_back(std::move(NB));
  }
  Z.TailSyms = TailSyms;
  return Z;
}

template <typename BlockFnT, typename ScatterFnT>
Zonotope Zonotope::epsMapScatter(size_t NewRows, size_t NewCols,
                                 const BlockFnT &BlockFn,
                                 const ScatterFnT &ScatterFn) const {
  Zonotope Z;
  Z.NumRows = NewRows;
  Z.NumCols = NewCols;
  Z.PhiP = PhiP;
  size_t NewVars = NewRows * NewCols;
  Z.Center = BlockFn(Center.reshaped(1, numVars())).reshaped(NewRows, NewCols);
  Z.PhiC = PhiC.rows() > 0 ? BlockFn(PhiC) : Matrix(0, NewVars);
  Z.EpsDense =
      EpsDense.rows() > 0 ? BlockFn(EpsDense) : Matrix(0, NewVars);
  for (const EpsBlock &B : EpsTail) {
    EpsBlock NB;
    switch (B.Kind) {
    case EpsBlockKind::Zero:
      NB.Kind = EpsBlockKind::Zero;
      NB.ZeroSyms = B.ZeroSyms;
      break;
    case EpsBlockKind::Diag: {
      // One O(nnz) scaled-row update per symbol instead of a full GEMM;
      // rows are disjoint, so the entry loop parallelises.
      NB.Kind = EpsBlockKind::Dense;
      NB.D = Matrix(B.Entries.size(), NewVars, 0.0);
      parallelFor(0, B.Entries.size(), grainForWork(NewVars),
                  [&](size_t I0, size_t I1) {
                    for (size_t I = I0; I < I1; ++I) {
                      const auto &E = B.Entries[I];
                      if (E.second != 0.0)
                        ScatterFn(E.first, E.second, NB.D.rowPtr(I));
                    }
                  });
      break;
    }
    case EpsBlockKind::Dense:
      NB.Kind = EpsBlockKind::Dense;
      NB.D = BlockFn(B.D);
      break;
    }
    Z.EpsTail.push_back(std::move(NB));
  }
  Z.TailSyms = TailSyms;
  return Z;
}

Zonotope Zonotope::matmulRightConst(const Matrix &W) const {
  assert(W.rows() == NumCols && "matmulRightConst shape mismatch");
  size_t D = W.cols();
  // Dense blocks: one batched GEMM per block. Row-major symbol rows
  // restack as an (S*Rows) x Cols matrix for free, and the GEMM kernel
  // accumulates ascending-k per output element, so the batch is
  // bit-identical to per-symbol multiplications.
  auto BlockFn = [&](const Matrix &Blk) {
    size_t S = Blk.rows();
    return tensor::matmulReshaped(Blk, S * NumRows, NumCols, W)
        .reshaped(S, NumRows * D);
  };
  auto ScatterFn = [&](size_t Var, double Coef, double *Out) {
    size_t R = Var / NumCols, C = Var % NumCols;
    const double *WR = W.rowPtr(C);
    double *O = Out + R * D;
    for (size_t J = 0; J < D; ++J)
      O[J] = Coef * WR[J];
  };
  return epsMapScatter(NumRows, D, BlockFn, ScatterFn);
}

Zonotope Zonotope::matmulLeftConst(const Matrix &W) const {
  assert(W.cols() == NumRows && "matmulLeftConst shape mismatch");
  size_t M = W.rows();
  size_t R = NumRows, C = NumCols;
  auto BlockFn = [&](const Matrix &Blk) {
    // Ascending-k (ikj) accumulation per output element, matching the
    // tensor::matmul kernel bit-for-bit.
    return denseRowwisePtr(Blk, 2 * M * R * C, M * NumCols,
                           [&W, M, R, C](const double *X, double *O) {
                             const tensor::Kernels &KT = tensor::kernels();
                             for (size_t I = 0; I < M; ++I) {
                               const double *WR = W.rowPtr(I);
                               double *OI = O + I * C;
                               for (size_t K = 0; K < R; ++K)
                                 KT.Axpy(WR[K], X + K * C, OI, C);
                             }
                           });
  };
  auto ScatterFn = [&](size_t Var, double Coef, double *Out) {
    size_t R = Var / NumCols, C = Var % NumCols;
    for (size_t I = 0; I < M; ++I)
      Out[I * NumCols + C] = W.at(I, R) * Coef;
  };
  return epsMapScatter(M, NumCols, BlockFn, ScatterFn);
}

Zonotope Zonotope::subRowMean() const {
  size_t R = NumRows, C = NumCols;
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 2 * R * C, numVars(),
                           [R, C](const double *X, double *O) {
                             const tensor::Kernels &KT = tensor::kernels();
                             for (size_t Rr = 0; Rr < R; ++Rr) {
                               const double *XR = X + Rr * C;
                               double *OR = O + Rr * C;
                               double Mean = KT.Sum(XR, C) /
                                             static_cast<double>(C);
                               for (size_t J = 0; J < C; ++J)
                                 OR[J] = XR[J] - Mean;
                             }
                           },
                           /*ZeroInit=*/false);
  };
  auto ScatterFn = [&](size_t Var, double Coef, double *Out) {
    size_t R = Var / NumCols, C = Var % NumCols;
    double Mean = Coef / static_cast<double>(NumCols);
    double *O = Out + R * NumCols;
    for (size_t J = 0; J < NumCols; ++J)
      O[J] = 0.0 - Mean;
    O[C] = Coef - Mean;
  };
  return epsMapScatter(NumRows, NumCols, BlockFn, ScatterFn);
}

Zonotope Zonotope::subRowMeanScale(const Matrix &Gamma) const {
  assert(Gamma.rows() == 1 && Gamma.cols() == NumCols &&
         "subRowMeanScale wants a 1 x Cols vector");
  // Fused subRowMean().scaleColumns(Gamma): one pass over the coefficient
  // planes instead of two, with the same per-element operations
  // ((x - mean) then * gamma), so results are bit-identical to the
  // two-step composition.
  size_t R = NumRows, C = NumCols;
  const double *G = Gamma.data();
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 3 * R * C, numVars(),
                           [R, C, G](const double *X, double *O) {
                             const tensor::Kernels &KT = tensor::kernels();
                             for (size_t Rr = 0; Rr < R; ++Rr) {
                               const double *XR = X + Rr * C;
                               double Mean = KT.Sum(XR, C) /
                                             static_cast<double>(C);
                               KT.SubScale(XR, Mean, G, O + Rr * C, C);
                             }
                           },
                           /*ZeroInit=*/false);
  };
  auto ScatterFn = [&](size_t Var, double Coef, double *Out) {
    size_t R = Var / NumCols, C = Var % NumCols;
    double Mean = Coef / static_cast<double>(NumCols);
    double *O = Out + R * NumCols;
    for (size_t J = 0; J < NumCols; ++J)
      O[J] = (0.0 - Mean) * G[J];
    O[C] = (Coef - Mean) * G[C];
  };
  return epsMapScatter(NumRows, NumCols, BlockFn, ScatterFn);
}

Zonotope Zonotope::rowMeans() const {
  size_t R = NumRows, C = NumCols;
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 2 * R * C, NumRows,
                           [R, C](const double *X, double *O) {
                             tensor::kernels().RowSums(X, R, C, O);
                             for (size_t Rr = 0; Rr < R; ++Rr)
                               O[Rr] /= static_cast<double>(C);
                           },
                           /*ZeroInit=*/false);
  };
  auto DiagFn = [&](const std::pair<size_t, double> &E) {
    return std::pair<size_t, double>(
        E.first / NumCols, E.second / static_cast<double>(NumCols));
  };
  return epsMapDiag(NumRows, 1, BlockFn, DiagFn);
}

Zonotope Zonotope::scaleColumns(const Matrix &Gamma) const {
  assert(Gamma.rows() == 1 && Gamma.cols() == NumCols &&
         "scaleColumns wants a 1 x Cols vector");
  size_t R = NumRows, C = NumCols;
  const double *G = Gamma.data();
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 2 * R * C, numVars(),
                           [R, C, G](const double *X, double *O) {
                             for (size_t Rr = 0; Rr < R; ++Rr)
                               for (size_t J = 0; J < C; ++J)
                                 O[Rr * C + J] = X[Rr * C + J] * G[J];
                           },
                           /*ZeroInit=*/false);
  };
  auto DiagFn = [&](const std::pair<size_t, double> &E) {
    return std::pair<size_t, double>(
        E.first, E.second * Gamma.at(0, E.first % NumCols));
  };
  return epsMapDiag(NumRows, NumCols, BlockFn, DiagFn);
}

Zonotope Zonotope::addRowBroadcast(const Matrix &Bias) const & {
  Zonotope Z = *this;
  Z.Center = tensor::addRowBroadcast(std::move(Z.Center), Bias);
  return Z;
}

Zonotope Zonotope::addRowBroadcast(const Matrix &Bias) && {
  Center = tensor::addRowBroadcast(std::move(Center), Bias);
  return std::move(*this);
}

Zonotope Zonotope::selectRow(size_t R) const {
  assert(R < NumRows && "selectRow out of range");
  size_t C = NumCols;
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 2 * C, NumCols,
                           [R, C](const double *X, double *O) {
                             std::copy(X + R * C, X + (R + 1) * C, O);
                           },
                           /*ZeroInit=*/false);
  };
  auto DiagFn = [&](const std::pair<size_t, double> &E) {
    if (E.first / NumCols != R)
      return std::pair<size_t, double>(0, 0.0);
    return std::pair<size_t, double>(E.first % NumCols, E.second);
  };
  return epsMapDiag(1, NumCols, BlockFn, DiagFn);
}

Zonotope Zonotope::selectColRange(size_t C0, size_t C1) const {
  assert(C0 <= C1 && C1 <= NumCols && "selectColRange out of range");
  size_t W = C1 - C0;
  size_t R = NumRows, C = NumCols;
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 2 * R * W, NumRows * W,
                           [R, C, C0, W](const double *X, double *O) {
                             for (size_t Rr = 0; Rr < R; ++Rr)
                               std::copy(X + Rr * C + C0,
                                         X + Rr * C + C0 + W, O + Rr * W);
                           },
                           /*ZeroInit=*/false);
  };
  auto DiagFn = [&](const std::pair<size_t, double> &E) {
    size_t R = E.first / NumCols, C = E.first % NumCols;
    if (C < C0 || C >= C1)
      return std::pair<size_t, double>(0, 0.0);
    return std::pair<size_t, double>(R * W + (C - C0), E.second);
  };
  return epsMapDiag(NumRows, W, BlockFn, DiagFn);
}

Zonotope Zonotope::transposedView() const {
  size_t R = NumRows, C = NumCols;
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 2 * R * C, numVars(),
                           [R, C](const double *X, double *O) {
                             for (size_t Rr = 0; Rr < R; ++Rr)
                               for (size_t J = 0; J < C; ++J)
                                 O[J * R + Rr] = X[Rr * C + J];
                           },
                           /*ZeroInit=*/false);
  };
  auto DiagFn = [&](const std::pair<size_t, double> &E) {
    size_t R = E.first / NumCols, C = E.first % NumCols;
    return std::pair<size_t, double>(C * NumRows + R, E.second);
  };
  return epsMapDiag(NumCols, NumRows, BlockFn, DiagFn);
}

Zonotope Zonotope::reshapedView(size_t Rows, size_t Cols) const {
  assert(Rows * Cols == numVars() && "reshape must preserve element count");
  Zonotope Z = *this;
  Z.NumRows = Rows;
  Z.NumCols = Cols;
  Z.Center = Center.reshaped(Rows, Cols);
  return Z;
}

Zonotope Zonotope::broadcastColTo(size_t Cols) const {
  assert(NumCols == 1 && "broadcastColTo wants a Rows x 1 view");
  size_t R = NumRows;
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 2 * R * Cols, NumRows * Cols,
                           [R, Cols](const double *X, double *O) {
                             for (size_t Rr = 0; Rr < R; ++Rr)
                               for (size_t J = 0; J < Cols; ++J)
                                 O[Rr * Cols + J] = X[Rr];
                           },
                           /*ZeroInit=*/false);
  };
  auto ScatterFn = [&](size_t Var, double Coef, double *Out) {
    double *O = Out + Var * Cols;
    for (size_t J = 0; J < Cols; ++J)
      O[J] = Coef;
  };
  return epsMapScatter(NumRows, Cols, BlockFn, ScatterFn);
}

Zonotope Zonotope::pairwiseDiffExpand() const {
  size_t R = NumRows, C = NumCols;
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 2 * R * C * C, R * C * C,
                           [R, C](const double *X, double *O) {
                             for (size_t Row = 0; Row < R; ++Row) {
                               const double *XR = X + Row * C;
                               double *OR = O + Row * C * C;
                               for (size_t J = 0; J < C; ++J) {
                                 double Sub = XR[J];
                                 double *OJ = OR + J * C;
                                 for (size_t JP = 0; JP < C; ++JP)
                                   OJ[JP] = XR[JP] - Sub;
                               }
                             }
                           },
                           /*ZeroInit=*/false);
  };
  auto ScatterFn = [R, C](size_t Var, double Coef, double *Out) {
    (void)R;
    size_t Row = Var / C, J0 = Var % C;
    // The entry contributes +Coef wherever it appears as the minuend
    // (j' == J0) and -Coef wherever it appears as the subtrahend
    // (j == J0); the overlap cancels to +0.0 exactly as in the dense map.
    for (size_t J = 0; J < C; ++J) {
      Out[(Row * C + J) * C + J0] += Coef;
      Out[(Row * C + J0) * C + J] -= Coef;
    }
  };
  return epsMapScatter(R * C, C, BlockFn, ScatterFn);
}

Zonotope Zonotope::rowSumsTo(size_t Rows, size_t Cols) const {
  assert(Rows * Cols == NumRows && "rowSumsTo wants one input row per output"
                                   " variable");
  size_t C = NumCols, NOut = Rows * Cols;
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 2 * NOut * C, NOut,
                           [C, NOut](const double *X, double *O) {
                             tensor::kernels().RowSums(X, NOut, C, O);
                           },
                           /*ZeroInit=*/false);
  };
  auto DiagFn = [&](const std::pair<size_t, double> &E) {
    return std::pair<size_t, double>(E.first / NumCols, E.second);
  };
  return epsMapDiag(Rows, Cols, BlockFn, DiagFn);
}

Zonotope Zonotope::rowSumBroadcast() const {
  size_t R = NumRows, C = NumCols;
  auto BlockFn = [&](const Matrix &Blk) {
    return denseRowwisePtr(Blk, 2 * R * C, numVars(),
                           [R, C](const double *X, double *O) {
                             // Row sums land in O[0..R-1]; broadcast each
                             // back-to-front so no sum is overwritten
                             // before it is read (Rr * C >= Rr).
                             tensor::kernels().RowSums(X, R, C, O);
                             for (size_t Rr = R; Rr-- > 0;) {
                               double S = O[Rr];
                               double *OR = O + Rr * C;
                               for (size_t J = 0; J < C; ++J)
                                 OR[J] = S;
                             }
                           },
                           /*ZeroInit=*/false);
  };
  auto ScatterFn = [&](size_t Var, double Coef, double *Out) {
    size_t R = Var / NumCols;
    double *O = Out + R * NumCols;
    for (size_t J = 0; J < NumCols; ++J)
      O[J] = Coef;
  };
  return epsMapScatter(NumRows, NumCols, BlockFn, ScatterFn);
}

Zonotope Zonotope::concatCols(const std::vector<Zonotope> &Parts) {
  assert(!Parts.empty() && "concatCols of nothing");
  size_t Rows = Parts.front().NumRows;
  size_t Cols = 0;
  size_t MaxEps = 0;
  for (const Zonotope &P : Parts) {
    assert(P.NumRows == Rows && "concatCols row mismatch");
    assert(P.PhiP == Parts.front().PhiP && P.numPhi() == Parts.front().numPhi() &&
           "concatCols phi mismatch");
    Cols += P.NumCols;
    MaxEps = std::max(MaxEps, P.numEps());
  }
  Zonotope Z;
  Z.NumRows = Rows;
  Z.NumCols = Cols;
  Z.PhiP = Parts.front().PhiP;
  Z.Center = Matrix(Rows, Cols);
  Z.PhiC = Matrix(Parts.front().numPhi(), Rows * Cols);
  size_t C0 = 0;
  for (const Zonotope &P : Parts) {
    Z.Center.setBlock(0, C0, P.Center);
    for (size_t S = 0; S < P.numPhi(); ++S) {
      const double *Src = P.PhiC.rowPtr(S);
      double *Dst = Z.PhiC.rowPtr(S);
      for (size_t R = 0; R < Rows; ++R)
        std::copy(Src + R * P.NumCols, Src + (R + 1) * P.NumCols,
                  Dst + R * Cols + C0);
    }
    C0 += P.NumCols;
  }
  // Eps: walk all parts per symbol. Symbols where every part is zero stay
  // Zero blocks; a symbol touched by exactly one part through a Diag entry
  // stays Diag (with the variable remapped into the concatenated view);
  // everything else becomes a dense row assembled by strided copies.
  std::vector<std::vector<EpsSymRef>> Refs;
  std::vector<size_t> PCols, Off;
  Refs.reserve(Parts.size());
  size_t Offset = 0;
  for (const Zonotope &P : Parts) {
    Refs.push_back(flattenEpsViews(P.epsBlockViews(), P.numEps()));
    PCols.push_back(P.NumCols);
    Off.push_back(Offset);
    Offset += P.NumCols;
  }
  // Classify each symbol, then process maximal runs of each class so
  // dense runs assemble in parallel as one block (disjoint output rows)
  // instead of through a serial per-symbol builder.
  auto Classify = [&](size_t S) -> int {
    size_t NonZero = 0;
    bool HasDense = false;
    for (size_t P = 0; P < Parts.size(); ++P) {
      if (S >= Refs[P].size())
        continue;
      EpsBlockKind K = Refs[P][S].Kind;
      if (K == EpsBlockKind::Zero)
        continue;
      ++NonZero;
      HasDense |= K == EpsBlockKind::Dense;
    }
    if (NonZero == 0)
      return 0;
    return (NonZero == 1 && !HasDense) ? 1 : 2;
  };
  EpsBlockListBuilder Bld(Rows * Cols);
  size_t S = 0;
  while (S < MaxEps) {
    int Cls = Classify(S);
    size_t S1 = S + 1;
    while (S1 < MaxEps && Classify(S1) == Cls)
      ++S1;
    size_t Len = S1 - S;
    if (Cls == 0) {
      Bld.zero(Len);
      S = S1;
      continue;
    }
    if (Cls == 1) {
      for (size_t I = S; I < S1; ++I) {
        for (size_t P = 0; P < Parts.size(); ++P) {
          if (I >= Refs[P].size() || Refs[P][I].Kind != EpsBlockKind::Diag)
            continue;
          const auto &E = Refs[P][I].Entry;
          size_t R = E.first / PCols[P], C = E.first % PCols[P];
          Bld.diag(R * Cols + Off[P] + C, E.second);
          break;
        }
      }
      S = S1;
      continue;
    }
    Matrix Run(Len, Rows * Cols, 0.0);
    parallelFor(0, Len, grainForWork(2 * Rows * Cols),
                [&](size_t R0, size_t R1) {
                  for (size_t I = R0; I < R1; ++I) {
                    double *Dst = Run.rowPtr(I);
                    for (size_t P = 0; P < Parts.size(); ++P) {
                      if (S + I >= Refs[P].size())
                        continue;
                      const EpsSymRef &Ref = Refs[P][S + I];
                      if (Ref.Kind == EpsBlockKind::Dense) {
                        const double *Src = Ref.Row;
                        for (size_t R = 0; R < Rows; ++R)
                          std::copy(Src + R * PCols[P],
                                    Src + (R + 1) * PCols[P],
                                    Dst + R * Cols + Off[P]);
                      } else if (Ref.Kind == EpsBlockKind::Diag) {
                        size_t R = Ref.Entry.first / PCols[P];
                        size_t C = Ref.Entry.first % PCols[P];
                        Dst[R * Cols + Off[P] + C] = Ref.Entry.second;
                      }
                    }
                  }
                });
    Bld.dense(std::move(Run));
    S = S1;
  }
  Z.installEpsBlocks(Bld.finish());
  return Z;
}

Zonotope Zonotope::mapLinear(
    size_t NewRows, size_t NewCols,
    const std::function<Matrix(const Matrix &)> &Fn) const {
  Zonotope Z;
  Z.NumRows = NewRows;
  Z.NumCols = NewCols;
  Z.PhiP = PhiP;
  Z.Center = Fn(Center);
  assert(Z.Center.rows() == NewRows && Z.Center.cols() == NewCols &&
         "mapLinear shape contract violated");
  // One Fn application per coefficient row, each writing a disjoint output
  // row: parallel over symbols. Fn must be pure (all mapLinear callers pass
  // stateless linear maps). The map is opaque, so the eps storage is
  // densified up front (hoisted before the parallel region).
  const Matrix &Eps = epsCoeffs();
  size_t SymGrain = grainForWork(2 * numVars());
  Z.PhiC = Matrix(numPhi(), NewRows * NewCols);
  parallelFor(0, numPhi(), SymGrain, [&](size_t S0, size_t S1) {
    for (size_t S = S0; S < S1; ++S) {
      Matrix Mapped = Fn(PhiC.rowSlice(S, S + 1).reshaped(NumRows, NumCols));
      std::copy(Mapped.data(), Mapped.data() + Mapped.size(),
                Z.PhiC.rowPtr(S));
    }
  });
  Z.EpsDense = Matrix(numEps(), NewRows * NewCols);
  parallelFor(0, numEps(), SymGrain, [&](size_t S0, size_t S1) {
    for (size_t S = S0; S < S1; ++S) {
      Matrix Mapped = Fn(Eps.rowSlice(S, S + 1).reshaped(NumRows, NumCols));
      std::copy(Mapped.data(), Mapped.data() + Mapped.size(),
                Z.EpsDense.rowPtr(S));
    }
  });
  return Z;
}

//===----------------------------------------------------------------------===//
// Noise-symbol plumbing
//===----------------------------------------------------------------------===//

void Zonotope::installCoeffs(Matrix Phi, Matrix Eps) {
  assert(Phi.cols() == numVars() && Eps.cols() == numVars() &&
         "installCoeffs column count mismatch");
  PhiC = std::move(Phi);
  EpsDense = std::move(Eps);
  EpsTail.clear();
  TailSyms = 0;
}

void Zonotope::installCoeffs(Matrix Phi, std::deque<EpsBlock> EpsBlocks) {
  assert(Phi.cols() == numVars() && "installCoeffs column count mismatch");
  PhiC = std::move(Phi);
  installEpsBlocks(std::move(EpsBlocks));
}

void Zonotope::padEpsTo(size_t Count) {
  assert(Count >= numEps() && "cannot shrink eps space by padding");
  size_t Extra = Count - numEps();
  if (Extra == 0)
    return;
  if (!EpsTail.empty() && EpsTail.back().Kind == EpsBlockKind::Zero) {
    EpsTail.back().ZeroSyms += Extra;
  } else {
    EpsBlock B;
    B.Kind = EpsBlockKind::Zero;
    B.ZeroSyms = Extra;
    EpsTail.push_back(std::move(B));
  }
  TailSyms += Extra;
}

void Zonotope::padPhiTo(size_t Count) {
  assert(Count >= numPhi() && "cannot shrink phi space by padding");
  PhiC.appendZeroRows(Count - numPhi());
}

void Zonotope::alignEps(Zonotope &A, Zonotope &B) {
  size_t Count = std::max(A.numEps(), B.numEps());
  A.padEpsTo(Count);
  B.padEpsTo(Count);
}

void Zonotope::padToMatch(const Zonotope &O) {
  if (numPhi() == 0)
    PhiP = O.PhiP;
  assert(PhiP == O.PhiP && "incompatible phi norms");
  if (numPhi() < O.numPhi())
    padPhiTo(O.numPhi());
  if (numEps() < O.numEps())
    padEpsTo(O.numEps());
}

void Zonotope::alignSpaces(Zonotope &A, Zonotope &B) {
  if (A.numPhi() == 0)
    A.PhiP = B.PhiP;
  if (B.numPhi() == 0)
    B.PhiP = A.PhiP;
  assert(A.PhiP == B.PhiP && "incompatible phi norms");
  size_t Count = std::max(A.numPhi(), B.numPhi());
  A.padPhiTo(Count);
  B.padPhiTo(Count);
  alignEps(A, B);
}

size_t Zonotope::appendFreshEps(
    const std::vector<std::pair<size_t, double>> &Entries) {
  // Every non-affine transformer introduces its fresh symbols through
  // here, so this one counter is the global eps-creation tally.
  static support::Counter &EpsCreated =
      support::Metrics::global().counter("zono.eps_symbols.created");
  EpsCreated.add(static_cast<double>(Entries.size()));
  size_t First = numEps();
  if (Entries.empty())
    return First;
  if (SymbolProvenance *P = SymbolProvenance::active())
    P->noteFresh(First, Entries.size());
#ifndef NDEBUG
  for (const auto &E : Entries)
    assert(E.first < numVars() && "fresh eps var out of range");
#endif
  if (!EpsTail.empty() && EpsTail.back().Kind == EpsBlockKind::Diag) {
    auto &Back = EpsTail.back().Entries;
    Back.insert(Back.end(), Entries.begin(), Entries.end());
  } else {
    EpsBlock B;
    B.Kind = EpsBlockKind::Diag;
    B.Entries = Entries;
    EpsTail.push_back(std::move(B));
  }
  TailSyms += Entries.size();
  return First;
}

void Zonotope::scalePerVarInPlace(const Matrix &Lambda) {
  assert(Lambda.rows() == NumRows && Lambda.cols() == NumCols &&
         "Lambda must have the view's shape");
  size_t N = numVars();
  const tensor::Kernels &K = tensor::kernels();
  K.RowScale(Lambda.data(), Center.data(), 1, N, N);
  size_t SymGrain = grainForWork(N);
  parallelFor(0, numPhi(), SymGrain, [&](size_t S0, size_t S1) {
    tensor::kernels().RowScale(Lambda.data(), PhiC.rowPtr(S0), S1 - S0, N, N);
  });
  auto ScaleDense = [&](Matrix &Blk) {
    parallelFor(0, Blk.rows(), SymGrain, [&](size_t S0, size_t S1) {
      tensor::kernels().RowScale(Lambda.data(), Blk.rowPtr(S0), S1 - S0, N,
                                 N);
    });
  };
  ScaleDense(EpsDense);
  for (EpsBlock &B : EpsTail) {
    if (B.Kind == EpsBlockKind::Dense)
      ScaleDense(B.D);
    else if (B.Kind == EpsBlockKind::Diag)
      for (auto &E : B.Entries)
        E.second *= Lambda.flat(E.first);
  }
}

void Zonotope::shiftCenterInPlace(const Matrix &Mu) {
  Center += Mu;
}

void Zonotope::rewriteEpsSymbol(size_t Sym, double Mid, double Rad) {
  if (Sym >= numEps())
    return; // This tensor predates the symbol; nothing to rewrite.
  if (Sym < EpsDense.rows()) {
    double *Row = EpsDense.rowPtr(Sym);
    for (size_t V = 0; V < numVars(); ++V) {
      Center.flat(V) += Mid * Row[V];
      Row[V] *= Rad;
    }
    return;
  }
  size_t S = Sym - EpsDense.rows();
  for (EpsBlock &B : EpsTail) {
    size_t Syms = B.syms();
    if (S >= Syms) {
      S -= Syms;
      continue;
    }
    switch (B.Kind) {
    case EpsBlockKind::Zero:
      break; // All-zero coefficient row: the rewrite is a no-op.
    case EpsBlockKind::Diag: {
      auto &E = B.Entries[S];
      Center.flat(E.first) += Mid * E.second;
      E.second *= Rad;
      break;
    }
    case EpsBlockKind::Dense: {
      double *Row = B.D.rowPtr(S);
      for (size_t V = 0; V < numVars(); ++V) {
        Center.flat(V) += Mid * Row[V];
        Row[V] *= Rad;
      }
      break;
    }
    }
    return;
  }
}

//===----------------------------------------------------------------------===//
// Sampling, evaluation, validation
//===----------------------------------------------------------------------===//

Matrix Zonotope::sample(support::Rng &Rng, bool OnBoundary) const {
  std::vector<double> PhiVals, EpsVals;
  sampleNoise(Rng, OnBoundary, PhiVals, EpsVals);
  return evaluate(PhiVals, EpsVals);
}

void Zonotope::sampleNoise(support::Rng &Rng, bool OnBoundary,
                           std::vector<double> &PhiVals,
                           std::vector<double> &EpsVals) const {
  PhiVals.assign(numPhi(), 0.0);
  EpsVals.assign(numEps(), 0.0);
  for (double &V : PhiVals)
    V = Rng.uniform(-1.0, 1.0);
  if (!PhiVals.empty()) {
    // Scale into (or onto) the unit lp ball.
    double Norm = 0.0;
    if (PhiP == 1.0) {
      for (double V : PhiVals)
        Norm += std::fabs(V);
    } else if (PhiP == 2.0) {
      for (double V : PhiVals)
        Norm += V * V;
      Norm = std::sqrt(Norm);
    } else {
      for (double V : PhiVals)
        Norm = std::max(Norm, std::fabs(V));
    }
    double Scale = OnBoundary ? (Norm > 0 ? 1.0 / Norm : 0.0)
                              : (Norm > 1.0 ? 1.0 / Norm : 1.0);
    for (double &V : PhiVals)
      V *= Scale;
  }
  for (double &V : EpsVals)
    V = OnBoundary ? Rng.sign() : Rng.uniform(-1.0, 1.0);
}

Matrix Zonotope::evaluate(const std::vector<double> &PhiVals,
                          const std::vector<double> &EpsVals) const {
  assert(PhiVals.size() == numPhi() && EpsVals.size() == numEps() &&
         "noise vector arity mismatch");
  Matrix Out = Center;
  for (size_t S = 0; S < numPhi(); ++S) {
    const double *Row = PhiC.rowPtr(S);
    double V = PhiVals[S];
    if (V == 0.0)
      continue;
    for (size_t I = 0; I < numVars(); ++I)
      Out.flat(I) += V * Row[I];
  }
  for (const EpsBlockView &BV : epsBlockViews()) {
    switch (BV.Kind) {
    case EpsBlockKind::Zero:
      break;
    case EpsBlockKind::Diag:
      for (size_t I = 0; I < BV.Syms; ++I) {
        double V = EpsVals[BV.Start + I];
        if (V == 0.0)
          continue;
        Out.flat(BV.Entries[I].first) += V * BV.Entries[I].second;
      }
      break;
    case EpsBlockKind::Dense:
      for (size_t I = 0; I < BV.Syms; ++I) {
        double V = EpsVals[BV.Start + I];
        if (V == 0.0)
          continue;
        const double *Row = BV.Dense->rowPtr(I);
        for (size_t J = 0; J < numVars(); ++J)
          Out.flat(J) += V * Row[J];
      }
      break;
    }
  }
  return Out;
}

bool Zonotope::validate(std::string *Why) const {
  auto Fail = [&](const std::string &Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };
  if (Center.rows() != NumRows || Center.cols() != NumCols)
    return Fail("center shape does not match the view");
  if (!PhiC.empty() && PhiC.cols() != numVars())
    return Fail("phi coefficient matrix has " + std::to_string(PhiC.cols()) +
                " columns for " + std::to_string(numVars()) + " variables");
  if (!EpsDense.empty() && EpsDense.cols() != numVars())
    return Fail("eps coefficient matrix has " +
                std::to_string(EpsDense.cols()) + " columns for " +
                std::to_string(numVars()) + " variables");
  if (numPhi() > 0 && !(PhiP >= 1.0 || PhiP == Matrix::InfNorm))
    return Fail("phi norm exponent " + std::to_string(PhiP) +
                " is not >= 1 or InfNorm");
  auto Finite = [](const Matrix &M) {
    const double *D = M.data();
    for (size_t I = 0, N = M.size(); I < N; ++I)
      if (!std::isfinite(D[I]))
        return false;
    return true;
  };
  if (!Finite(Center))
    return Fail("non-finite center entry");
  if (!Finite(PhiC))
    return Fail("non-finite phi coefficient");
  if (!Finite(EpsDense))
    return Fail("non-finite eps coefficient");
  size_t Counted = 0;
  for (const EpsBlock &B : EpsTail) {
    Counted += B.syms();
    switch (B.Kind) {
    case EpsBlockKind::Zero:
      break;
    case EpsBlockKind::Diag:
      for (const auto &E : B.Entries) {
        if (!std::isfinite(E.second))
          return Fail("non-finite eps coefficient");
        if (E.second != 0.0 && E.first >= numVars())
          return Fail("eps block entry addresses variable " +
                      std::to_string(E.first) + " of " +
                      std::to_string(numVars()));
      }
      break;
    case EpsBlockKind::Dense:
      if (B.D.cols() != numVars())
        return Fail("eps coefficient matrix has " +
                    std::to_string(B.D.cols()) + " columns for " +
                    std::to_string(numVars()) + " variables");
      if (!Finite(B.D))
        return Fail("non-finite eps coefficient");
      break;
    }
  }
  if (Counted != TailSyms)
    return Fail("eps block symbol count " + std::to_string(Counted) +
                " does not match cached tail size " +
                std::to_string(TailSyms));
  return true;
}
