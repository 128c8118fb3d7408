//===- crown/Backward.cpp -------------------------------------*- C++ -*-===//

#include "crown/Backward.h"

#include "crown/Relaxations.h"
#include "tensor/Matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

using namespace deept;
using namespace deept::crown;
using tensor::dualExponent;

namespace {

/// Accumulated linear bounds of the target in terms of one graph node:
///   target >= AL * node^T + (bias terms collected globally), and
///   target <= AU * node^T + ...
struct Accumulator {
  Matrix AL; // TargetDim x NodeDim
  Matrix AU;
};

size_t accumulatorBytes(const Accumulator &A) {
  return (A.AL.size() + A.AU.size()) * sizeof(double);
}

/// Adds Src into Dst (allocating on first touch).
void addInto(Matrix &Dst, const Matrix &Src) {
  if (Dst.empty() && Dst.rows() == 0)
    Dst = Src;
  else
    Dst += Src;
}

/// Concretizes coefficients at the input node with the perturbation's
/// dual norm (Lemma 1): A x = A x0 +- eps ||A_masked||_q per row, or the
/// weighted l1 form for per-dimension boxes.
void concretizeInput(const Matrix &AL, const Matrix &AU,
                     const InputSpec &Spec, Matrix &BiasL, Matrix &BiasU) {
  double Q = dualExponent(Spec.P);
  for (size_t R = 0; R < AL.rows(); ++R) {
    double CenterL = 0.0, CenterU = 0.0;
    for (size_t J = 0; J < AL.cols(); ++J) {
      CenterL += AL.at(R, J) * Spec.Center.flat(J);
      CenterU += AU.at(R, J) * Spec.Center.flat(J);
    }
    auto DualTerm = [&](const Matrix &A) {
      if (Spec.P == Matrix::InfNorm) {
        // Per-dimension box: weighted l1.
        double S = 0.0;
        for (size_t J = 0; J < A.cols(); ++J)
          S += std::fabs(A.at(R, J)) * Spec.Radius.flat(J);
        return S;
      }
      // Uniform radius Eps on masked dims: Eps * ||A_masked||_q. The
      // radius vector holds Eps on masked dims and 0 elsewhere.
      double Eps = 0.0;
      double Acc = 0.0;
      for (size_t J = 0; J < A.cols(); ++J) {
        double Rad = Spec.Radius.flat(J);
        if (Rad == 0.0)
          continue;
        Eps = Rad;
        double V = std::fabs(A.at(R, J));
        if (Q == 1.0)
          Acc += V;
        else if (Q == 2.0)
          Acc += V * V;
        else
          Acc = std::max(Acc, V);
      }
      if (Q == 2.0)
        Acc = std::sqrt(Acc);
      return Eps * Acc;
    };
    BiasL.at(R, 0) += CenterL - DualTerm(AL);
    BiasU.at(R, 0) += CenterU + DualTerm(AU);
  }
}

} // namespace

BackwardResult deept::crown::computeBounds(const Graph &G, int Target,
                                           const BackwardOptions &Opts) {
  const Node &TN = G.node(Target);
  size_t Dim = TN.Dim;
  BackwardResult Result;
  Matrix BiasL(Dim, 1, 0.0), BiasU(Dim, 1, 0.0);

  // Accumulators keyed by node id; processed in decreasing id order
  // (ids are topological).
  std::map<int, Accumulator, std::greater<int>> Acc;
  Accumulator Init;
  Init.AL = Matrix::identity(Dim);
  Init.AU = Matrix::identity(Dim);
  Acc.emplace(Target, std::move(Init));

  size_t LiveBytes = accumulatorBytes(Acc.begin()->second);
  Result.PeakBytes = LiveBytes;
  Result.TotalBytes = LiveBytes;
  auto TrackAlloc = [&](const Accumulator &A) {
    LiveBytes += accumulatorBytes(A);
    Result.TotalBytes += accumulatorBytes(A);
    Result.PeakBytes = std::max(Result.PeakBytes, LiveBytes);
    if (Opts.MemoryBudgetBytes > 0 &&
        std::max(Result.PeakBytes, Result.TotalBytes) >
            Opts.MemoryBudgetBytes)
      Result.MemoryExceeded = true;
  };

  while (!Acc.empty()) {
    int Id = Acc.begin()->first;
    Accumulator A = std::move(Acc.begin()->second);
    Acc.erase(Acc.begin());
    const Node &N = G.node(Id);

    if (Result.MemoryExceeded)
      return Result;

    switch (N.Kind) {
    case NodeKind::Input:
      concretizeInput(A.AL, A.AU, G.inputSpec(), BiasL, BiasU);
      break;

    case NodeKind::Affine: {
      // y = x W + b: coefficients on x are A W^T (computed sparsely over
      // W's triplets); bias += A b^T.
      Accumulator Next;
      Next.AL = Matrix(Dim, N.InDim);
      Next.AU = Matrix(Dim, N.InDim);
      for (size_t R = 0; R < Dim; ++R) {
        const double *AL = A.AL.rowPtr(R);
        const double *AU = A.AU.rowPtr(R);
        double *NL = Next.AL.rowPtr(R);
        double *NU = Next.AU.rowPtr(R);
        for (const Triplet &T : N.W) {
          NL[T.In] += T.V * AL[T.Out];
          NU[T.In] += T.V * AU[T.Out];
        }
        double BL = 0.0, BU = 0.0;
        for (size_t J = 0; J < N.Dim; ++J) {
          BL += AL[J] * N.B.flat(J);
          BU += AU[J] * N.B.flat(J);
        }
        BiasL.at(R, 0) += BL;
        BiasU.at(R, 0) += BU;
      }
      TrackAlloc(Next);
      Accumulator &Slot = Acc[N.In0];
      addInto(Slot.AL, Next.AL);
      addInto(Slot.AU, Next.AU);
      break;
    }

    case NodeKind::AddTwo: {
      Accumulator &S0 = Acc[N.In0];
      addInto(S0.AL, A.AL);
      addInto(S0.AU, A.AU);
      TrackAlloc(A);
      Accumulator &S1 = Acc[N.In1];
      addInto(S1.AL, A.AL);
      addInto(S1.AU, A.AU);
      TrackAlloc(A);
      break;
    }

    case NodeKind::Unary: {
      const Node &In = G.node(N.In0);
      assert(In.HasBounds && "unary input lacks interval bounds");
      Accumulator Next;
      Next.AL = Matrix(Dim, N.Dim);
      Next.AU = Matrix(Dim, N.Dim);
      for (size_t J = 0; J < N.Dim; ++J) {
        TwoLines T = unaryLines(N.Fn, In.Lo.flat(J), In.Hi.flat(J));
        for (size_t R = 0; R < Dim; ++R) {
          double L = A.AL.at(R, J);
          if (L > 0) {
            Next.AL.at(R, J) += L * T.LowerSlope;
            BiasL.at(R, 0) += L * T.LowerOffset;
          } else if (L < 0) {
            Next.AL.at(R, J) += L * T.UpperSlope;
            BiasL.at(R, 0) += L * T.UpperOffset;
          }
          double U = A.AU.at(R, J);
          if (U > 0) {
            Next.AU.at(R, J) += U * T.UpperSlope;
            BiasU.at(R, 0) += U * T.UpperOffset;
          } else if (U < 0) {
            Next.AU.at(R, J) += U * T.LowerSlope;
            BiasU.at(R, 0) += U * T.LowerOffset;
          }
        }
      }
      TrackAlloc(Next);
      Accumulator &Slot = Acc[N.In0];
      addInto(Slot.AL, Next.AL);
      addInto(Slot.AU, Next.AU);
      break;
    }

    case NodeKind::Mul: {
      const Node &X = G.node(N.In0);
      const Node &Y = G.node(N.In1);
      assert(X.HasBounds && Y.HasBounds && "mul inputs lack bounds");
      Accumulator NX, NY;
      NX.AL = Matrix(Dim, N.Dim);
      NX.AU = Matrix(Dim, N.Dim);
      NY.AL = Matrix(Dim, N.Dim);
      NY.AU = Matrix(Dim, N.Dim);
      for (size_t J = 0; J < N.Dim; ++J) {
        MulLines M = mulLines(X.Lo.flat(J), X.Hi.flat(J), Y.Lo.flat(J),
                              Y.Hi.flat(J));
        for (size_t R = 0; R < Dim; ++R) {
          double L = A.AL.at(R, J);
          if (L > 0) {
            NX.AL.at(R, J) += L * M.ALo;
            NY.AL.at(R, J) += L * M.BLo;
            BiasL.at(R, 0) += L * M.CLo;
          } else if (L < 0) {
            NX.AL.at(R, J) += L * M.AUp;
            NY.AL.at(R, J) += L * M.BUp;
            BiasL.at(R, 0) += L * M.CUp;
          }
          double U = A.AU.at(R, J);
          if (U > 0) {
            NX.AU.at(R, J) += U * M.AUp;
            NY.AU.at(R, J) += U * M.BUp;
            BiasU.at(R, 0) += U * M.CUp;
          } else if (U < 0) {
            NX.AU.at(R, J) += U * M.ALo;
            NY.AU.at(R, J) += U * M.BLo;
            BiasU.at(R, 0) += U * M.CLo;
          }
        }
      }
      TrackAlloc(NX);
      TrackAlloc(NY);
      Accumulator &SX = Acc[N.In0];
      addInto(SX.AL, NX.AL);
      addInto(SX.AU, NX.AU);
      Accumulator &SY = Acc[N.In1];
      addInto(SY.AL, NY.AL);
      addInto(SY.AU, NY.AU);
      break;
    }
    }
    LiveBytes -= accumulatorBytes(A);
  }

  Result.Lo = Matrix(1, Dim);
  Result.Hi = Matrix(1, Dim);
  for (size_t R = 0; R < Dim; ++R) {
    double L = BiasL.at(R, 0);
    double U = BiasU.at(R, 0);
    // With saturated exponentials (hopelessly large perturbation probes
    // during the radius search) the independently accumulated lower and
    // upper bounds can overflow, turn NaN, or cross. Sanitize to a huge
    // sound interval; certification at such radii fails regardless.
    constexpr double Huge = 1e100;
    if (!(L <= U) || std::isnan(L) || std::isnan(U)) {
      L = -Huge;
      U = Huge;
    }
    Result.Lo.flat(R) = std::clamp(L, -Huge, Huge);
    Result.Hi.flat(R) = std::clamp(U, -Huge, Huge);
  }
  return Result;
}

bool deept::crown::computeAllBounds(Graph &G, const BackwardOptions &Opts,
                                    size_t *PeakBytes, size_t *TotalBytes) {
  // Only the inputs of nonlinear nodes need interval bounds: they feed
  // the relaxations.
  std::vector<bool> Needed(G.size(), false);
  for (size_t I = 0; I < G.size(); ++I) {
    const Node &N = G.node(static_cast<int>(I));
    if (N.Kind == NodeKind::Unary || N.Kind == NodeKind::Mul) {
      Needed[N.In0] = true;
      if (N.In1 >= 0)
        Needed[N.In1] = true;
    }
  }
  size_t Peak = 0, Total = 0;
  auto Publish = [&] {
    if (PeakBytes)
      *PeakBytes = Peak;
    if (TotalBytes)
      *TotalBytes = Total;
  };
  for (size_t I = 0; I < G.size(); ++I) {
    Node &N = G.node(static_cast<int>(I));
    if (N.HasBounds)
      continue; // input node
    if (!Needed[I])
      continue;
    BackwardResult R = computeBounds(G, static_cast<int>(I), Opts);
    Peak = std::max(Peak, R.PeakBytes);
    Total += R.TotalBytes;
    if (R.MemoryExceeded ||
        (Opts.MemoryBudgetBytes > 0 && Total > Opts.MemoryBudgetBytes)) {
      Publish();
      return false;
    }
    N.Lo = R.Lo;
    N.Hi = R.Hi;
    N.HasBounds = true;
  }
  Publish();
  return true;
}
