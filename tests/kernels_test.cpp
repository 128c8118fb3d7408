//===- tests/kernels_test.cpp - SIMD kernel equivalence -------*- C++ -*-===//
//
// Tests of the SIMD execution layer: each available kernel table must be
// 0-ULP identical to the lane-ordered scalar emulation of its reductions;
// the elementwise kernels must be bit-identical across every ISA; and
// radii must be thread-count invariant within each ISA.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "data/SyntheticCorpus.h"
#include "nn/Transformer.h"
#include "support/Crc.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "tensor/Kernels.h"
#include "tensor/Matrix.h"
#include "verify/Certificate.h"
#include "verify/DeepT.h"
#include "verify/Profile.h"
#include "zono/DotProduct.h"
#include "zono/Elementwise.h"
#include "zono/Zonotope.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

using namespace deept;
using testhelp::ScopedThreads;
using tensor::Isa;
using tensor::Kernels;
using tensor::Matrix;

namespace {

class ScopedIsa {
public:
  explicit ScopedIsa(Isa I) : Prev(tensor::currentIsa()) {
    EXPECT_TRUE(tensor::setIsa(I));
  }
  ~ScopedIsa() { tensor::setIsa(Prev); }

private:
  Isa Prev;
};

std::vector<Isa> availableIsas() {
  std::vector<Isa> Out;
  for (Isa I : {Isa::Scalar, Isa::Avx2, Isa::Avx512})
    if (tensor::isaAvailable(I))
      Out.push_back(I);
  return Out;
}

std::vector<double> randomVec(size_t N, support::Rng &Rng, double ZeroProb = 0.0) {
  std::vector<double> V(N);
  for (double &X : V) {
    X = Rng.gaussian() * std::exp(Rng.gaussian());
    if (ZeroProb > 0.0 && Rng.uniform() < ZeroProb)
      X = 0.0;
  }
  return V;
}

// Sizes straddling every remainder path of the 4- and 8-lane kernels.
const size_t Sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 257};

TEST(KernelDispatch, ParseIsaStrict) {
  Isa I = Isa::Scalar;
  std::string Err;
  EXPECT_TRUE(tensor::parseIsa("scalar", I, &Err));
  EXPECT_EQ(I, Isa::Scalar);
  EXPECT_TRUE(tensor::parseIsa("avx2", I, &Err));
  EXPECT_EQ(I, Isa::Avx2);
  EXPECT_TRUE(tensor::parseIsa("avx512", I, &Err));
  EXPECT_EQ(I, Isa::Avx512);
  EXPECT_TRUE(tensor::parseIsa("native", I, &Err));
  EXPECT_EQ(I, tensor::bestAvailableIsa());
  for (const char *Bad : {"", "AVX2", "sse", "avx", "scalar ", "2", "auto"}) {
    EXPECT_FALSE(tensor::parseIsa(Bad, I, &Err)) << "'" << Bad << "'";
    EXPECT_NE(Err.find(Bad), std::string::npos)
        << "error should echo the bad token: " << Err;
  }
}

TEST(KernelDispatch, SetIsaRejectsUnavailableAndUpdatesGauge) {
  for (Isa I : {Isa::Avx2, Isa::Avx512})
    if (!tensor::isaAvailable(I)) {
      std::string Err;
      EXPECT_FALSE(tensor::setIsa(I, &Err));
      EXPECT_FALSE(Err.empty());
    }
  for (Isa I : availableIsas()) {
    ScopedIsa S(I);
    EXPECT_EQ(tensor::currentIsa(), I);
    EXPECT_EQ(support::Metrics::global().gauge("kernel.isa").value(),
              static_cast<double>(I));
  }
}

/// Dot and Sum must match the lane-ordered scalar emulation bit-for-bit
/// on every available ISA, for every vector-remainder shape.
TEST(KernelEquivalence, ReductionsMatchLaneOrderedEmulation) {
  support::Rng Rng(0x51D0);
  for (Isa I : availableIsas()) {
    ScopedIsa S(I);
    const Kernels &K = tensor::kernels();
    ASSERT_EQ(K.Tag, I);
    for (size_t N : Sizes) {
      std::vector<double> X = randomVec(N, Rng), Y = randomVec(N, Rng);
      double Dot = K.Dot(X.data(), Y.data(), N);
      double Ref = tensor::detail::dotLanes(X.data(), Y.data(), N, K.Lanes);
      EXPECT_EQ(Dot, Ref) << "Dot isa=" << tensor::isaName(I) << " N=" << N;
      double Sum = K.Sum(X.data(), N);
      double SRef = tensor::detail::sumLanes(X.data(), N, K.Lanes);
      EXPECT_EQ(Sum, SRef) << "Sum isa=" << tensor::isaName(I) << " N=" << N;
    }
  }
}

/// The Eq. 6 partner kernel must equal, bit for bit, the per-pair loop it
/// replaced: that table's Dot on every (s, t) pair, folded in ascending t
/// onto the incoming (Lo, Hi), separately for each row lane. Covers every
/// group size R up to L, every D through 2L + 3 (the D < L chain, the
/// lane chains with and without a tail), partner counts on both sides of
/// each lane boundary, each row's own symbol at partner 0, L - 1, L, T - 1
/// or absent, and zero, negative and positive products. Lanes past R and
/// one exhausted lane inside R hold NaN in A and a stale Self, and their
/// Lo/Hi must come back untouched; NaN also follows the last partner in
/// the panel, so a read past it would show.
TEST(KernelEquivalence, EpsPairsMatchPerPairDot) {
  support::Rng Rng(0xE6E6);
  const double NaN = std::nan("");
  for (Isa I : availableIsas()) {
    ScopedIsa Sc(I);
    const Kernels &K = tensor::kernels();
    const size_t L = K.Lanes, W = L;
    std::vector<size_t> Ts = {0, 1, L - 1, L, L + 1, 2 * L + 1};
    std::sort(Ts.begin(), Ts.end());
    Ts.erase(std::unique(Ts.begin(), Ts.end()), Ts.end());
    for (size_t D = 1; D <= 2 * L + 3; ++D) {
      for (size_t T : Ts) {
        std::vector<std::vector<double>> Parts;
        for (size_t Q = 0; Q < T; ++Q)
          Parts.push_back(randomVec(D, Rng, 0.3));
        if (T > 0) // an exact zero product
          std::fill(Parts[0].begin(), Parts[0].end(), 0.0);
        std::vector<double> Panel((T + L) * D, NaN);
        for (size_t Q = 0; Q < T; ++Q)
          std::copy(Parts[Q].begin(), Parts[Q].end(), Panel.begin() + Q * D);
        const size_t Selves[] = {0, L - 1, L, T - 1, T, T + 7};
        for (size_t R = 1; R <= W; ++R) {
          for (size_t Variant = 0; Variant < 2; ++Variant) {
            // Lane Hole (inside R when R >= 3) has run out of symbols.
            const size_t Hole = R >= 3 ? R / 2 : W;
            unsigned Active = 0;
            std::vector<std::vector<double>> Rows(W);
            std::vector<double> A(D * W, NaN);
            std::vector<size_t> Self(W, T + 3);
            std::vector<double> Lo(W), Hi(W);
            for (size_t Ln = 0; Ln < W; ++Ln) {
              Lo[Ln] = Rng.gaussian();
              Hi[Ln] = Rng.gaussian();
              if (Ln >= R || Ln == Hole)
                continue;
              Active |= 1u << Ln;
              Rows[Ln] = randomVec(D, Rng, 0.3);
              if (T > 1 && Ln % 2 == 1) // a negative product: -partner 1
                for (size_t Kk = 0; Kk < D; ++Kk)
                  Rows[Ln][Kk] = -Parts[1][Kk];
              for (size_t Kk = 0; Kk < D; ++Kk)
                A[Kk * W + Ln] = Rows[Ln][Kk];
              size_t S = Selves[(Ln + Variant * 3) % std::size(Selves)];
              Self[Ln] = S < T ? S : T;
            }
            std::vector<double> WantLo = Lo, WantHi = Hi;
            for (size_t Ln = 0; Ln < W; ++Ln) {
              if (!(Active >> Ln & 1u))
                continue;
              for (size_t Q = 0; Q < T; ++Q) {
                double G = K.Dot(Rows[Ln].data(), Parts[Q].data(), D);
                if (Q == Self[Ln]) {
                  if (G > 0.0)
                    WantHi[Ln] += G;
                  else
                    WantLo[Ln] += G;
                } else {
                  WantHi[Ln] += std::fabs(G);
                  WantLo[Ln] -= std::fabs(G);
                }
              }
            }
            K.EpsPairs(A.data(), Active, Panel.data(), T, D, Self.data(),
                       Lo.data(), Hi.data());
            for (size_t Ln = 0; Ln < W; ++Ln) {
              EXPECT_EQ(std::bit_cast<std::uint64_t>(Lo[Ln]),
                        std::bit_cast<std::uint64_t>(WantLo[Ln]))
                  << "EpsPairs Lo isa=" << tensor::isaName(I) << " D=" << D
                  << " T=" << T << " R=" << R << " lane=" << Ln
                  << " self=" << Self[Ln];
              EXPECT_EQ(std::bit_cast<std::uint64_t>(Hi[Ln]),
                        std::bit_cast<std::uint64_t>(WantHi[Ln]))
                  << "EpsPairs Hi isa=" << tensor::isaName(I) << " D=" << D
                  << " T=" << T << " R=" << R << " lane=" << Ln
                  << " self=" << Self[Ln];
            }
          }
        }
      }
    }
  }
}

/// A DotPlanesTransposedB problem: S planes of N x D times M x D^T.
struct PlanesShape {
  size_t N, M, D, S;
};

/// Runs DotPlanesTransposedB on \p Sh in every operand layout (shared A
/// via stride 0, shared B, fully strided), both accumulate modes and with
/// and without the pack scratch, and compares each result by memcmp with
/// an open-coded per-plane reference: zero rows of A are zero-filled (or
/// left untouched when accumulating), every other output element is
/// \p DotRef(ARow, BRow, D).
template <class DotFn>
void checkDotPlanes(const Kernels &K, const PlanesShape &Sh, support::Rng &Rng,
                    DotFn DotRef) {
  // Enough zeros that whole rows (and whole planes) go zero sometimes.
  std::vector<double> AShared = randomVec(Sh.N * Sh.D, Rng, 0.4);
  std::vector<double> APlanes = randomVec(Sh.S * Sh.N * Sh.D, Rng, 0.4);
  if (Sh.N > 1) { // force the zero-row skip (and the flag hoist) to fire
    std::fill(AShared.begin(), AShared.begin() + Sh.D, 0.0);
    std::fill(APlanes.begin(), APlanes.begin() + Sh.D, 0.0);
  }
  std::vector<double> BShared = randomVec(Sh.M * Sh.D, Rng);
  std::vector<double> BPlanes = randomVec(Sh.S * Sh.M * Sh.D, Rng);
  std::vector<double> Seed = randomVec(Sh.S * Sh.N * Sh.M, Rng);
  std::vector<double> Pack(tensor::dotPlanesPackDoubles(Sh.N, Sh.M, Sh.D));
  struct Layout {
    const char *Name;
    const double *A;
    size_t StrideA;
    const double *B;
    size_t StrideB;
  };
  const Layout Layouts[] = {
      {"sharedA", AShared.data(), 0, BPlanes.data(), Sh.M * Sh.D},
      {"sharedB", APlanes.data(), Sh.N * Sh.D, BShared.data(), 0},
      {"strided", APlanes.data(), Sh.N * Sh.D, BPlanes.data(), Sh.M * Sh.D},
  };
  for (const Layout &L : Layouts) {
    for (bool Accumulate : {false, true}) {
      // When not accumulating, C may start uninitialized -- seed it with
      // garbage to verify the kernel overwrites (or zero-fills) every row,
      // per the contract in tensor/Kernels.h.
      const std::vector<double> Init =
          Accumulate ? Seed : std::vector<double>(Seed.size(), -777.0);
      std::vector<double> Want = Init;
      for (size_t Sym = 0; Sym < Sh.S; ++Sym) {
        for (size_t R = 0; R < Sh.N; ++R) {
          const double *ARow = L.A + Sym * L.StrideA + R * Sh.D;
          double *WRow = Want.data() + (Sym * Sh.N + R) * Sh.M;
          bool AllZero = true;
          for (size_t Kk = 0; Kk < Sh.D && AllZero; ++Kk)
            AllZero = ARow[Kk] == 0.0;
          for (size_t J = 0; J < Sh.M; ++J) {
            if (AllZero) {
              if (!Accumulate)
                WRow[J] = 0.0;
              continue;
            }
            double V = DotRef(ARow, L.B + Sym * L.StrideB + J * Sh.D, Sh.D);
            WRow[J] = Accumulate ? WRow[J] + V : V;
          }
        }
      }
      for (bool UsePack : {false, true}) {
        std::vector<double> Got = Init;
        K.DotPlanesTransposedB(L.A, L.StrideA, Sh.N, L.B, L.StrideB, Sh.M,
                               Sh.D, Sh.S, Got.data(), Sh.N * Sh.M,
                               Accumulate, UsePack ? Pack.data() : nullptr);
        EXPECT_EQ(
            std::memcmp(Got.data(), Want.data(), Got.size() * sizeof(double)),
            0)
            << "DotPlanesTransposedB isa=" << tensor::isaName(K.Tag)
            << " layout=" << L.Name << " N=" << Sh.N << " M=" << Sh.M
            << " D=" << Sh.D << " S=" << Sh.S << " acc=" << Accumulate
            << " pack=" << UsePack;
      }
    }
  }
}

/// The A * B^T kernel must equal a per-element dotLanes reference (with
/// the zero-row skip) on every ISA: for one plane (the matmulTransposedB
/// call) and for several, in every layout and accumulate mode, with and
/// without packing.
TEST(KernelEquivalence, DotTransposedBMatchesEmulation) {
  support::Rng Rng(0xD07B);
  const PlanesShape Shapes[] = {{1, 1, 1, 1},  {3, 5, 7, 1},  {4, 4, 8, 1},
                                {5, 9, 16, 1}, {7, 13, 17, 1}, {2, 4, 100, 1},
                                {6, 3, 33, 1}, {8, 8, 1, 1},  {3, 5, 7, 3},
                                {7, 13, 17, 2}, {6, 3, 33, 4}, {8, 8, 1, 3}};
  for (Isa I : availableIsas()) {
    ScopedIsa S(I);
    const Kernels &K = tensor::kernels();
    for (const PlanesShape &Sh : Shapes)
      checkDotPlanes(K, Sh, Rng,
                     [&](const double *X, const double *Y, size_t D) {
                       return tensor::detail::dotLanes(X, Y, D, K.Lanes);
                     });
  }
}

/// The elementwise kernels carry no reassociation, so their bits must
/// agree with the scalar table on every ISA. (The vector abs behind the
/// cascade's |row| step is the one AccAbs and AccMaxAbs run; AccMaxAbs
/// from a zero accumulator stores exactly |X|.)
TEST(KernelEquivalence, ElementwiseBitIdenticalAcrossIsas) {
  support::Rng Rng(0xE1E3);
  const size_t KN = 3; // Axpy4K steps, so every C row sees several k
  for (size_t N : Sizes) {
    std::vector<double> X = randomVec(N, Rng), G = randomVec(N, Rng);
    std::vector<double> Y0 = randomVec(N, Rng);
    std::vector<double> A0 = randomVec(KN, Rng), A1 = randomVec(KN, Rng);
    std::vector<double> A2 = randomVec(KN, Rng), A3 = randomVec(KN, Rng);
    std::vector<double> B = randomVec(KN * N, Rng);
    std::vector<double> C0 = randomVec(N, Rng), C1 = randomVec(N, Rng);
    std::vector<double> C2 = randomVec(N, Rng), C3 = randomVec(N, Rng);
    double A = Rng.gaussian();
    double Mean = Rng.gaussian();

    struct Snapshot {
      std::vector<double> Axpy, A40, A41, A42, A43, Sub, AccA, AccS, AccM;
    };
    auto Run = [&](const Kernels &K) {
      Snapshot S;
      S.Axpy = Y0;
      K.Axpy(A, X.data(), S.Axpy.data(), N);
      S.A40 = C0;
      S.A41 = C1;
      S.A42 = C2;
      S.A43 = C3;
      K.Axpy4K(A0.data(), A1.data(), A2.data(), A3.data(), 0, KN, B.data(),
               S.A40.data(), S.A41.data(), S.A42.data(), S.A43.data(), N);
      S.Sub.resize(N);
      K.SubScale(X.data(), Mean, G.data(), S.Sub.data(), N);
      S.AccA = G;
      K.AccAbs(X.data(), S.AccA.data(), N);
      S.AccS = G;
      K.AccSq(X.data(), S.AccS.data(), N);
      S.AccM.assign(N, 0.0);
      K.AccMaxAbs(X.data(), S.AccM.data(), N);
      return S;
    };

    Snapshot Want;
    {
      ScopedIsa S(Isa::Scalar);
      Want = Run(tensor::kernels());
    }
    for (Isa I : availableIsas()) {
      if (I == Isa::Scalar)
        continue;
      ScopedIsa S(I);
      Snapshot Got = Run(tensor::kernels());
      auto Same = [&](const auto &GotV, const auto &WantV, const char *What) {
        ASSERT_EQ(GotV.size(), WantV.size());
        if (GotV.empty())
          return; // memcmp must not see the null data() of an empty vector
        EXPECT_EQ(std::memcmp(GotV.data(), WantV.data(),
                              GotV.size() * sizeof(GotV[0])),
                  0)
            << What << " isa=" << tensor::isaName(I) << " N=" << N;
      };
      Same(Got.Axpy, Want.Axpy, "Axpy");
      Same(Got.A40, Want.A40, "Axpy4K.C0");
      Same(Got.A41, Want.A41, "Axpy4K.C1");
      Same(Got.A42, Want.A42, "Axpy4K.C2");
      Same(Got.A43, Want.A43, "Axpy4K.C3");
      Same(Got.Sub, Want.Sub, "SubScale");
      Same(Got.AccA, Want.AccA, "AccAbs");
      Same(Got.AccS, Want.AccS, "AccSq");
      Same(Got.AccM, Want.AccM, "AccMaxAbs");
    }
  }
}

/// The fused kernels (RowSums, Axpy4K, CascadeDense) exist to cut
/// indirect-dispatch counts, not to change arithmetic: each must be
/// bit-identical to the unfused sequence it replaces, on every ISA. The
/// Axpy4K and CascadeDense references are open-coded loops, so neither
/// kernel is checked against itself.
TEST(KernelEquivalence, FusedKernelsMatchUnfusedComposition) {
  support::Rng Rng(0xF05E);
  for (Isa I : availableIsas()) {
    ScopedIsa S(I);
    const Kernels &K = tensor::kernels();

    // RowSums == Sum per row.
    for (size_t R : {1u, 3u, 7u}) {
      for (size_t C : {1u, 5u, 12u, 33u}) {
        std::vector<double> X = randomVec(R * C, Rng);
        std::vector<double> Got(R, -777.0), Want(R);
        K.RowSums(X.data(), R, C, Got.data());
        for (size_t Q = 0; Q < R; ++Q)
          Want[Q] = K.Sum(X.data() + Q * C, C);
        EXPECT_EQ(std::memcmp(Got.data(), Want.data(), R * sizeof(double)),
                  0)
            << "RowSums isa=" << tensor::isaName(I) << " R=" << R
            << " C=" << C;
      }
    }

    // Axpy4K == one mul-then-add per (row, k, j), k ascending.
    {
      size_t KN = 9, M = 13;
      std::vector<double> A0 = randomVec(KN, Rng), A1 = randomVec(KN, Rng);
      std::vector<double> A2 = randomVec(KN, Rng), A3 = randomVec(KN, Rng);
      std::vector<double> B = randomVec(KN * M, Rng);
      std::vector<double> Seed = randomVec(4 * M, Rng);
      std::vector<double> Got = Seed, Want = Seed;
      size_t K0 = 2, K1 = 8;
      K.Axpy4K(A0.data(), A1.data(), A2.data(), A3.data(), K0, K1, B.data(),
               Got.data(), Got.data() + M, Got.data() + 2 * M,
               Got.data() + 3 * M, M);
      for (size_t Kk = K0; Kk < K1; ++Kk) {
        const double V[4] = {A0[Kk], A1[Kk], A2[Kk], A3[Kk]};
        for (size_t R = 0; R < 4; ++R)
          for (size_t J = 0; J < M; ++J)
            Want[R * M + J] += V[R] * B[Kk * M + J];
      }
      EXPECT_EQ(std::memcmp(Got.data(), Want.data(), 4 * M * sizeof(double)),
                0)
          << "Axpy4K isa=" << tensor::isaName(I);
    }

    // CascadeDense == |slice| / zero-skip / lane-ordered 1-row dot /
    // accumulate per symbol, for each norm mode.
    for (double Q : {1.0, 2.0, Matrix::InfNorm}) {
      size_t SymN = 5, D = 11, M = 7, Stride = 2 * D;
      std::vector<double> A = randomVec(SymN * Stride, Rng, 0.3);
      std::fill(A.begin() + Stride, A.begin() + Stride + D,
                0.0); // an all-zero slice exercises the skip
      std::vector<double> B = randomVec(M * D, Rng);
      std::vector<double> Seed = randomVec(M, Rng);
      for (double &V : Seed)
        V = std::fabs(V); // the cascade accumulator is nonnegative
      std::vector<double> AbsS(D), T(M);
      std::vector<double> Got = Seed, Want = Seed;
      K.CascadeDense(A.data(), SymN, Stride, B.data(), M, D, Q, AbsS.data(),
                     T.data(), Got.data());
      std::vector<double> WantAbs(D);
      for (size_t Sym = 0; Sym < SymN; ++Sym) {
        bool AllZero = true;
        for (size_t Kk = 0; Kk < D; ++Kk) {
          WantAbs[Kk] = std::fabs(A[Sym * Stride + Kk]);
          AllZero = AllZero && WantAbs[Kk] == 0.0;
        }
        if (AllZero)
          continue;
        for (size_t J = 0; J < M; ++J) {
          double Tj = tensor::detail::dotLanes(WantAbs.data(),
                                               B.data() + J * D, D, K.Lanes);
          if (Q == 1.0)
            Want[J] += Tj;
          else if (Q == 2.0)
            Want[J] += Tj * Tj;
          else
            Want[J] = std::max(Want[J], std::fabs(Tj));
        }
      }
      EXPECT_EQ(std::memcmp(Got.data(), Want.data(), M * sizeof(double)), 0)
          << "CascadeDense isa=" << tensor::isaName(I) << " Q=" << Q;
    }
  }
}

/// The whole-plane fused kernel must reproduce the per-plane composition
/// spelled with the table's own Dot kernel, one call per output element,
/// bit-for-bit: same zero-row fill/skip contract, both accumulate modes,
/// with and without the packing scratch, for the shared-A (phi A-half),
/// shared-B (phi B-half) and fully strided operand layouts, on every ISA.
TEST(KernelEquivalence, DotPlanesFusedMatchesPerPlaneCalls) {
  support::Rng Rng(0xFA57);
  const PlanesShape Shapes[] = {{1, 1, 1, 1},  {3, 5, 7, 4},  {4, 4, 8, 3},
                                {5, 9, 16, 2}, {7, 3, 17, 5}, {2, 4, 33, 6}};
  for (Isa I : availableIsas()) {
    ScopedIsa Sc(I);
    const Kernels &K = tensor::kernels();
    for (const PlanesShape &Sh : Shapes)
      checkDotPlanes(K, Sh, Rng, K.Dot);
  }
}

/// RowScale is elementwise (one multiply per entry, no reduction), so its
/// bits must match the plain scalar products on every ISA, for strided
/// row batches and every remainder shape.
TEST(KernelEquivalence, RowScaleBitIdenticalAcrossIsas) {
  support::Rng Rng(0x5CA1E);
  for (size_t N : Sizes) {
    size_t Stride = N + 3, R = 3;
    std::vector<double> Lambda = randomVec(N, Rng);
    std::vector<double> Base = randomVec(R * Stride, Rng);
    std::vector<double> Want = Base;
    for (size_t Q = 0; Q < R; ++Q)
      for (size_t J = 0; J < N; ++J)
        Want[Q * Stride + J] = Base[Q * Stride + J] * Lambda[J];
    for (Isa I : availableIsas()) {
      ScopedIsa S(I);
      std::vector<double> Rows = Base;
      tensor::kernels().RowScale(Lambda.data(), Rows.data(), R, Stride, N);
      EXPECT_EQ(std::memcmp(Rows.data(), Want.data(),
                            Rows.size() * sizeof(double)),
                0)
          << "RowScale isa=" << tensor::isaName(I) << " N=" << N;
    }
  }
}

/// Two zonotopes sharing one noise-symbol ancestry whose eps storage mixes
/// Dense, Diag and Zero blocks on both sides -- the realistic dotRows
/// operand shape (attention Q . K^T after elementwise + matmul layers).
void makeDotOperands(double P, zono::Zonotope &A, zono::Zonotope &B) {
  support::Rng Rng(0xD07F);
  Matrix Center = Matrix::randn(4, 6, Rng, 0.5);
  zono::Zonotope Z = zono::Zonotope::lpBall(Center, P, 0.05);
  Z = zono::applyTanh(Z); // Diag block on the shared prefix
  Matrix WA = Matrix::randn(6, 6, Rng, 0.4);
  A = zono::applyTanh(Z.matmulRightConst(WA)); // Dense + fresh Diag
  Matrix WB = Matrix::randn(6, 6, Rng, 0.4);
  B = Z.matmulRightConst(WB); // Dense blocks, missing A's later symbols
}

/// Exact equality of two zonotopes, densified for comparison.
::testing::AssertionResult zonoBitsEqual(const zono::Zonotope &A,
                                         const zono::Zonotope &B) {
  if (A.rows() != B.rows() || A.cols() != B.cols() ||
      A.numPhi() != B.numPhi() || A.numEps() != B.numEps())
    return ::testing::AssertionFailure() << "shape or symbol counts differ";
  auto Cmp = [](const char *What, const Matrix &X,
                const Matrix &Y) -> ::testing::AssertionResult {
    if (X.size() != Y.size())
      return ::testing::AssertionFailure() << What << " sizes differ";
    if (X.size() != 0 &&
        std::memcmp(X.data(), Y.data(), X.size() * sizeof(double)) != 0)
      return ::testing::AssertionFailure() << What << " bits differ";
    return ::testing::AssertionSuccess();
  };
  if (auto R = Cmp("center", A.center(), B.center()); !R)
    return R;
  if (auto R = Cmp("phi", A.phiCoeffs(), B.phiCoeffs()); !R)
    return R;
  return Cmp("eps", A.epsCoeffs(), B.epsCoeffs());
}

/// dotRows through the whole-plane fused path must not depend on the eps
/// block structure (blocks vs force-densified operands) or on the thread
/// count, for either method, on any ISA. Covers the stretch-batched Dense
/// runs, the Diag scatter rows and the Zero passthrough together.
TEST(KernelEquivalence, DotRowsBitIdenticalAcrossBlockMixesAndThreads) {
  for (Isa I : availableIsas()) {
    ScopedIsa Sc(I);
    for (auto Method : {zono::DotMethod::Fast, zono::DotMethod::Precise}) {
      for (double P : {2.0, Matrix::InfNorm}) {
        zono::DotOptions Opts;
        Opts.Method = Method;
        zono::Zonotope A, B;
        makeDotOperands(P, A, B);
        ASSERT_GT(A.epsBlockCount(), 1u);
        zono::Zonotope Ref;
        {
          ScopedThreads T(1);
          Ref = zono::dotRows(A, B, Opts);
        }
        // Densified twins: same abstract value, single Dense block.
        zono::Zonotope AD = A, BD = B;
        AD.epsCoeffs();
        BD.epsCoeffs();
        {
          ScopedThreads T(1);
          EXPECT_TRUE(zonoBitsEqual(Ref, zono::dotRows(AD, BD, Opts)))
              << "blocks vs dense, isa=" << tensor::isaName(I);
        }
        for (size_t Threads : {2u, 8u}) {
          ScopedThreads T(Threads);
          EXPECT_TRUE(zonoBitsEqual(Ref, zono::dotRows(A, B, Opts)))
              << "threads=" << Threads << " isa=" << tensor::isaName(I);
        }
      }
    }
  }
}

/// Precise dotRows operands over N rows whose active eps-symbol lists
/// differ in length: row I mixes the box symbols of rows 0..I (so lists
/// grow with I), and only rows I % 3 == 1, centred on zero, cross the
/// ReLU and gain fresh diagonal symbols of their own.
void makeRaggedPreciseOperands(size_t N, zono::Zonotope &A,
                               zono::Zonotope &B) {
  support::Rng Rng(0x5EED + N);
  const size_t D = 6;
  zono::Zonotope Z = zono::Zonotope::lpBall(Matrix::randn(N, D, Rng, 0.5),
                                            Matrix::InfNorm, 0.05);
  Matrix Tri = Matrix::randn(N, N, Rng, 0.3);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      Tri.at(I, J) = 0.0;
  zono::Zonotope Mixed = Z.matmulLeftConst(Tri);
  Matrix Shift = Mixed.center() * -1.0;
  for (size_t I = 0; I < N; ++I)
    if (I % 3 != 1)
      for (size_t K = 0; K < D; ++K)
        Shift.at(I, K) += 3.0;
  A = zono::applyRelu(Mixed.addConst(Shift));
  B = Mixed.matmulRightConst(Matrix::randn(D, D, Rng, 0.4));
}

/// The Eq. 6 bound runs in groups of L rows (the table's lane count), each
/// row walking its own symbol list in lockstep with the group's others.
/// For row counts around each group boundary and ragged symbol lists,
/// Precise dotRows must not depend on the thread count, on the eps block
/// structure or on which rows share a group, on any ISA.
TEST(KernelEquivalence, DotRowsPreciseBitIdenticalAcrossRowGroups) {
  zono::DotOptions Opts;
  Opts.Method = zono::DotMethod::Precise;
  for (Isa I : availableIsas()) {
    ScopedIsa Sc(I);
    const size_t L = tensor::kernels().Lanes;
    for (size_t N : {size_t(1), L - 1, L, L + 1, 2 * L + 1}) {
      if (N == 0)
        continue;
      zono::Zonotope A, B;
      makeRaggedPreciseOperands(N, A, B);
      zono::Zonotope Ref;
      {
        ScopedThreads T(1);
        Ref = zono::dotRows(A, B, Opts);
      }
      zono::Zonotope AD = A, BD = B;
      AD.epsCoeffs();
      BD.epsCoeffs();
      {
        ScopedThreads T(1);
        EXPECT_TRUE(zonoBitsEqual(Ref, zono::dotRows(AD, BD, Opts)))
            << "blocks vs dense, isa=" << tensor::isaName(I) << " N=" << N;
      }
      for (size_t Threads : {2u, 8u}) {
        ScopedThreads T(Threads);
        EXPECT_TRUE(zonoBitsEqual(Ref, zono::dotRows(A, B, Opts)))
            << "threads=" << Threads << " isa=" << tensor::isaName(I)
            << " N=" << N;
      }
      // Row I alone is a group of one lane: its bound, and so its centre
      // row (the interval midpoint), must not depend on its group.
      for (size_t Row = 0; Row < N; ++Row) {
        Matrix One = zono::dotRows(A.selectRow(Row), B, Opts).center();
        EXPECT_EQ(std::memcmp(One.data(), Ref.center().rowPtr(Row),
                              One.size() * sizeof(double)),
                  0)
            << "row " << Row << " alone vs in its group, isa="
            << tensor::isaName(I) << " N=" << N;
      }
    }
  }
}

/// The FLOP estimate must be block-aware: a Diag/Zero-heavy eps tail does
/// O(N + M) work per symbol, so it must charge far less than the same
/// abstract value pushed through with one dense block.
TEST(KernelEquivalence, DotRowsFlopsEstIsBlockAware) {
  zono::Zonotope A, B;
  makeDotOperands(2.0, A, B);
  zono::Zonotope AD = A, BD = B;
  AD.epsCoeffs();
  BD.epsCoeffs();
  support::Counter &Flops =
      support::Metrics::global().counter("zono.dot.flops_est");
  double Start = Flops.value();
  zono::dotRows(A, B);
  double BlockFlops = Flops.value() - Start;
  Start = Flops.value();
  zono::dotRows(AD, BD);
  double DenseFlops = Flops.value() - Start;
  EXPECT_GT(BlockFlops, 0.0);
  EXPECT_LT(BlockFlops, DenseFlops)
      << "block-aware estimate should be cheaper than the densified run";
}

/// A small zonotope with both phi and eps symbols pushed through linear +
/// ReLU transformers -- the realistic radii workload.
zono::Zonotope makeZonotope(double P, support::Rng &Rng) {
  Matrix Center = Matrix::randn(6, 12, Rng);
  zono::Zonotope Z = zono::Zonotope::lpBallOnRow(Center, 1, P, 0.1);
  Matrix W = Matrix::randn(12, 10, Rng);
  Z = Z.matmulRightConst(W);
  Z = zono::applyRelu(std::move(Z)); // introduces eps symbols
  Matrix W2 = Matrix::randn(10, 8, Rng);
  return Z.matmulRightConst(W2);
}

/// Per-ISA thread-count invariance: radii bits must not depend on the
/// pool size under any kernel table.
TEST(KernelEquivalence, RadiiBitIdenticalAcrossThreadCountsPerIsa) {
  for (Isa I : availableIsas()) {
    ScopedIsa S(I);
    for (double P : {1.0, 2.0, Matrix::InfNorm}) {
      support::Rng Rng(0xAD11);
      zono::Zonotope Z = makeZonotope(P, Rng);
      Matrix R1;
      {
        ScopedThreads T(1);
        R1 = Z.radii();
      }
      for (size_t Threads : {2u, 8u}) {
        ScopedThreads T(Threads);
        Matrix RN = Z.radii();
        ASSERT_EQ(RN.size(), R1.size());
        EXPECT_EQ(std::memcmp(RN.data(), R1.data(),
                              R1.size() * sizeof(double)),
                  0)
            << "radii differ at " << Threads << " threads, isa="
            << tensor::isaName(I) << " p=" << P;
      }
    }
  }
}

/// The deept_cli sentence selection behind the cached-model margin pins:
/// sample with seed 2, keep the first two sentences the model classifies
/// correctly with word 0 in range.
std::vector<data::Sentence> sstPinSentences(const nn::TransformerModel &Model) {
  data::SyntheticCorpus Corpus(
      data::CorpusConfig::sstLike(Model.Config.EmbedDim));
  support::Rng Rng(2);
  std::vector<data::Sentence> Sentences;
  while (Sentences.size() < 2) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    if (Model.classify(S.Tokens) != S.Label || S.Tokens.empty())
      continue;
    Sentences.push_back(S);
  }
  return Sentences;
}

/// A pin sentence of 12 to 16 tokens (the model's MaxLen is 16): the
/// same corpus and seed as sstPinSentences with a longer length range,
/// keeping the second sentence the model classifies correctly (14
/// tokens). The first one's Precise margins come out bit-equal on every
/// ISA, so they would not tell the lane orders apart.
data::Sentence sstLongPinSentence(const nn::TransformerModel &Model) {
  data::CorpusConfig C = data::CorpusConfig::sstLike(Model.Config.EmbedDim);
  C.MinLen = 12;
  C.MaxLen = 16;
  data::SyntheticCorpus Corpus(C);
  support::Rng Rng(2);
  for (size_t Kept = 0;;) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    if (Model.classify(S.Tokens) == S.Label && ++Kept == 2)
      return S;
  }
}

/// End-to-end regression pins for the whole-plane fused rewrite: margins
/// on the cached sst_m12 model must reproduce the pre-fusion release
/// bit-for-bit at the scalar ISA (the one table whose reduction order is
/// shared by every build). Values were captured from the prior release
/// with the deept_cli recipe: seed 2, word 0, eps 0.02, noise budget 600,
/// skipping misclassified sentences. Also asserts 1/2/8-thread identity
/// on the same margins.
TEST(KernelEquivalence, CachedSstMarginsBitIdenticalToPreFusionRelease) {
  nn::TransformerModel Model = testhelp::loadCachedModel("sst_m12");
  if (!tensor::isaAvailable(Isa::Scalar))
    GTEST_SKIP() << "scalar table unavailable";
  ScopedIsa Sc(Isa::Scalar);
  std::vector<data::Sentence> Sentences = sstPinSentences(Model);

  struct Pin {
    double P;
    zono::DotMethod Method;
    size_t Sentence;       // index into Sentences
    std::uint64_t Margin;  // expected margin bits at eps = 0.02
  };
  const Pin Pins[] = {
      {1.0, zono::DotMethod::Fast, 0, 0x40206eeab69d022aULL},
      {1.0, zono::DotMethod::Fast, 1, 0x40206eeaa9710f63ULL},
      {2.0, zono::DotMethod::Fast, 0, 0x40206eeab69c71a3ULL},
      {2.0, zono::DotMethod::Fast, 1, 0xc01ea8221cad9cf1ULL},
      {Matrix::InfNorm, zono::DotMethod::Fast, 0, 0xc02191d8066a3bb9ULL},
      {Matrix::InfNorm, zono::DotMethod::Fast, 1, 0xc02191d8066a3bb9ULL},
      {1.0, zono::DotMethod::Precise, 0, 0x40206eeab69d0231ULL},
  };
  for (const Pin &Pn : Pins) {
    const data::Sentence &S = Sentences[Pn.Sentence];
    verify::VerifierConfig VC;
    VC.NoiseReductionBudget = 600;
    VC.Method = Pn.Method;
    verify::DeepTVerifier V(Model, VC);
    Matrix Emb = Model.embed(S.Tokens);
    zono::Zonotope In = zono::Zonotope::lpBallOnRow(Emb, 0, Pn.P, 0.02);
    double Want = std::bit_cast<double>(Pn.Margin);
    double Margin1;
    {
      ScopedThreads T(1);
      Margin1 = V.certifyMargin(In, S.Label);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(Margin1), Pn.Margin)
        << "margin drifted from the pre-fusion release: p=" << Pn.P
        << " sentence=" << Pn.Sentence + 1 << " method="
        << (Pn.Method == zono::DotMethod::Fast ? "fast" : "precise")
        << " got=" << Margin1 << " want=" << Want;
    for (size_t Threads : {2u, 8u}) {
      ScopedThreads T(Threads);
      EXPECT_EQ(Margin1, V.certifyMargin(In, S.Label))
          << "margin differs at " << Threads << " threads, p=" << Pn.P;
    }
  }

  // The observers' view of the first pin, pinned across commits: the
  // certificate payload and the precision profile (timings zeroed) must
  // stay byte-identical. CRCs captured at the commit before the verifier
  // hooks became one observer list.
  const Pin &First = Pins[0];
  const data::Sentence &S = Sentences[First.Sentence];
  verify::CertificateBuilder Cert;
  Cert.Data.Query = "pin";
  Cert.Data.Norm = "l1";
  Cert.Data.P = 1.0;
  verify::PrecisionProfile Prof;
  Prof.Query = "pin";
  Prof.Method = "fast";
  Prof.Norm = "l1";
  Prof.Eps = 0.02;
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 600;
  VC.Observers = {&Cert, &Prof};
  zono::Zonotope In =
      zono::Zonotope::lpBallOnRow(Model.embed(S.Tokens), 0, First.P, 0.02);
  double Margin = verify::DeepTVerifier(Model, VC).certifyMargin(In, S.Label);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(Margin), First.Margin);
  std::string Payload = Cert.Data.payloadJson();
  EXPECT_EQ(support::crc32(Payload.data(), Payload.size()), 0xa1c45b8bu);
  Prof.TotalMs = 0.0;
  for (verify::CheckpointProfile &C : Prof.Checkpoints)
    C.SinceMs = 0.0;
  std::string Line = Prof.toJsonLine();
  EXPECT_EQ(support::crc32(Line.data(), Line.size()), 0x754f3835u);
}

/// Per-ISA regression pins for the DeepT-Precise Eq. 6 bound: margins on
/// the cached sst_m3 model for every norm and both pin sentences, at
/// every ISA the host offers. Each ISA has its own reduction lane order,
/// so each has its own bits; the values were captured before the Eq. 6
/// partner loop moved into the EpsPairs kernel, which must reproduce the
/// per-pair Dot bits exactly. Same recipe as the pins above, on sst_m3
/// rather than sst_m12: there Precise costs ~3 s a margin, and each of
/// these margins comes out bit-equal on every ISA, so its pins would not
/// tell the lane orders apart.
TEST(KernelEquivalence, CachedSstPreciseMarginsPinnedPerIsa) {
  nn::TransformerModel Model = testhelp::loadCachedModel("sst_m3");
  std::vector<data::Sentence> Sentences = sstPinSentences(Model);

  struct Pin {
    Isa I;
    double P;
    size_t Sentence;      // index into Sentences
    std::uint64_t Margin; // expected margin bits at eps = 0.02
  };
  const Pin Pins[] = {
      {Isa::Scalar, 1.0, 0, 0x401db08a23b57fd6ULL},
      {Isa::Scalar, 1.0, 1, 0x401dd3ac3fba13a9ULL},
      {Isa::Scalar, 2.0, 0, 0x401daec00832ae60ULL},
      {Isa::Scalar, 2.0, 1, 0x401dd374a4f79a5bULL},
      {Isa::Scalar, Matrix::InfNorm, 0, 0x401d9b732defb026ULL},
      {Isa::Scalar, Matrix::InfNorm, 1, 0x401dd1be2d679c18ULL},
      {Isa::Avx2, 1.0, 0, 0x401db08a23b57fd5ULL},
      {Isa::Avx2, 1.0, 1, 0x401dd3ac3fba13a9ULL},
      {Isa::Avx2, 2.0, 0, 0x401daec00832ae60ULL},
      {Isa::Avx2, 2.0, 1, 0x401dd374a4f79a5aULL},
      {Isa::Avx2, Matrix::InfNorm, 0, 0x401d9b732defb026ULL},
      {Isa::Avx2, Matrix::InfNorm, 1, 0x401dd1be2d679c18ULL},
      {Isa::Avx512, 1.0, 0, 0x401db08a23b57fd6ULL},
      {Isa::Avx512, 1.0, 1, 0x401dd3ac3fba13a9ULL},
      {Isa::Avx512, 2.0, 0, 0x401daec00832ae61ULL},
      {Isa::Avx512, 2.0, 1, 0x401dd374a4f79a5bULL},
      {Isa::Avx512, Matrix::InfNorm, 0, 0x401d9b732defb027ULL},
      {Isa::Avx512, Matrix::InfNorm, 1, 0x401dd1be2d679c18ULL},
  };
  // Sentence 3 is long: with N > 8 the bound spans two AVX-512 row
  // groups, and attn_output contracts over D = N >= L. Its pins were
  // captured before the Eq. 6 kernel's lanes moved from partners to rows.
  Sentences.push_back(sstLongPinSentence(Model));
  const Pin LongPins[] = {
      {Isa::Scalar, 1.0, 2, 0x401a9eb95f7671fdULL},
      {Isa::Scalar, 2.0, 2, 0x401a83ea6e587575ULL},
      {Isa::Scalar, Matrix::InfNorm, 2, 0x401956cd7b1645b5ULL},
      {Isa::Avx2, 1.0, 2, 0x401a9eb95f7671feULL},
      {Isa::Avx2, 2.0, 2, 0x401a83ea6e587576ULL},
      {Isa::Avx2, Matrix::InfNorm, 2, 0x401956cd7b1645b5ULL},
      {Isa::Avx512, 1.0, 2, 0x401a9eb95f7671fdULL},
      {Isa::Avx512, 2.0, 2, 0x401a83ea6e587577ULL},
      {Isa::Avx512, Matrix::InfNorm, 2, 0x401956cd7b1645b5ULL},
  };
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 600;
  VC.Method = zono::DotMethod::Precise;
  verify::DeepTVerifier V(Model, VC);
  size_t Checked = 0;
  for (const auto &List : {std::span<const Pin>(Pins),
                           std::span<const Pin>(LongPins)}) {
    for (const Pin &Pn : List) {
      if (!tensor::isaAvailable(Pn.I))
        continue;
      ScopedIsa Sc(Pn.I);
      const data::Sentence &S = Sentences[Pn.Sentence];
      zono::Zonotope In =
          zono::Zonotope::lpBallOnRow(Model.embed(S.Tokens), 0, Pn.P, 0.02);
      double Margin;
      {
        ScopedThreads T(2);
        Margin = V.certifyMargin(In, S.Label);
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(Margin), Pn.Margin)
          << "precise margin drifted: isa=" << tensor::isaName(Pn.I)
          << " p=" << Pn.P << " sentence=" << Pn.Sentence + 1 << std::hex
          << " got=0x" << std::bit_cast<std::uint64_t>(Margin);
      ++Checked;
    }
  }
  EXPECT_GE(Checked, 9u) << "the scalar pins always run";
}

} // namespace
