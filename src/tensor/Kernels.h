//===- tensor/Kernels.h - Runtime-dispatched SIMD kernels ------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SIMD execution layer: a small vtable of pointer-level kernels with
/// scalar, AVX2+FMA and AVX-512 implementations, selected once at runtime
/// from CPU features (overridable via the DEEPT_ISA environment variable
/// or the --isa flag). The zonotope transformers, the GEMM variants and
/// the dual-norm reductions dispatch through kernels() instead of open-
/// coding their inner loops.
///
/// Determinism contract (per ISA): every kernel is a pure function of its
/// inputs -- no thread-count or scheduling dependence -- so results stay
/// bit-identical at any thread count *within* an ISA. Different ISAs may
/// differ by ulps in the reduction kernels (Dot / Sum / RowSums /
/// CascadeDense / DotPlanesTransposedB / EpsPairs), which accumulate in L
/// lanes (scalar L=1, AVX2 L=4, AVX-512 L=8):
/// element k feeds lane k % L via FMA, lanes reduce pairwise in the fixed
/// order detail::dotLanes documents, and the tail (k >= N - N % L)
/// FMA-accumulates serially onto the lane total. detail::dotLanes /
/// sumLanes reproduce this order exactly in scalar code, so tests can
/// assert 0-ULP equality against each SIMD implementation. The remaining
/// kernels are elementwise (one fixed rounding sequence per element, no
/// reassociation) and produce identical bits on every ISA.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_TENSOR_KERNELS_H
#define DEEPT_TENSOR_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace deept {
namespace tensor {

/// Instruction sets the dispatcher can select. Numeric order is
/// preference order (higher is wider).
enum class Isa : int {
  Scalar = 0, ///< Portable C++; bit-preserves the pre-SIMD kernels.
  Avx2 = 1,   ///< AVX2 + FMA, 4 doubles per vector.
  Avx512 = 2, ///< AVX-512 F/DQ/VL, 8 doubles per vector.
};

/// The kernel vtable. All pointers are always non-null; an unsupported
/// ISA simply cannot be selected.
struct Kernels {
  Isa Tag = Isa::Scalar;
  /// Reduction lane count L of the lane-ordered kernels (1, 4 or 8).
  size_t Lanes = 1;

  /// Lane-ordered dot product of two length-N rows.
  double (*Dot)(const double *X, const double *Y, size_t N);

  /// Lane-ordered sum of a length-N row (plain adds, no FMA).
  double (*Sum)(const double *X, size_t N);

  /// Y[i] += A * X[i]. Elementwise (mul then add per element, matching
  /// the scalar kernel exactly on every ISA).
  void (*Axpy)(double A, const double *X, double *Y, size_t N);

  /// Out[i] = (X[i] - Mean) * G[i] (the fused layer-norm row kernel).
  void (*SubScale)(const double *X, double Mean, const double *G,
                   double *Out, size_t N);

  /// Acc[i] += |X[i]|  /  Acc[i] += X[i]*X[i]  /
  /// Acc[i] = max(Acc[i], |X[i]|): the dual-norm accumulators.
  void (*AccAbs)(const double *X, double *Acc, size_t N);
  void (*AccSq)(const double *X, double *Acc, size_t N);
  void (*AccMaxAbs)(const double *X, double *Acc, size_t N);

  /// O[q] = Sum(X + q * C, C) for q in 0..R-1: one dispatch for a whole
  /// block of short rows. Bit-identical to calling Sum per row -- the
  /// fusion only removes per-row indirect-call overhead (the row sums of
  /// softmax denominators are ~sentence-length, where the call costs as
  /// much as the add loop).
  void (*RowSums)(const double *X, size_t R, size_t C, double *O);

  /// C{r}[j] += A{r}[k] * B[k * M + j] for k in [K0, K1) ascending: the
  /// register-blocked GEMM inner loop (four output rows share each loaded
  /// B element). Elementwise mul-then-add per element with no
  /// reassociation, so bit-identical on every ISA; one dispatch per
  /// register block instead of one per k.
  void (*Axpy4K)(const double *A0, const double *A1, const double *A2,
                 const double *A3, size_t K0, size_t K1, const double *B,
                 double *C0, double *C1, double *C2, double *C3, size_t M);

  /// The fused Eq. 5 cascade over one dense block and one outer row: for
  /// s in 0..S-1, with slice A + s * StrideA (length D),
  ///   AbsS[k] = |slice[k]|;
  ///   skip s when AbsS is all zero;
  ///   T[j] = lane-ordered AbsS . B[j];    (1-row DotPlanesTransposedB)
  ///   Q == 1: Acc[j] += T[j]  /  Q == 2: Acc[j] += T[j]^2  /
  ///   else:   Acc[j] = max(Acc[j], T[j]).
  /// Bit-identical to that sequence spelled with DotPlanesTransposedB /
  /// Axpy(1.0) / AccSq / AccMaxAbs per symbol; fusing removes ~4
  /// indirect dispatches per (row, symbol) pair, the dominant call-count
  /// in the fast dot-product bound. AbsS (D) and T (M) are caller scratch.
  void (*CascadeDense)(const double *A, size_t S, size_t StrideA,
                       const double *B, size_t M, size_t D, double Q,
                       double *AbsS, double *T, double *Acc);

  /// The pointer-level A * B^T kernel, over S coefficient planes at once
  /// (the dotRows symbol loop): for plane s in 0..S-1,
  ///   C + s * StrideC  (+)=  PA(s) * PB(s)^T,
  /// i.e. C[i*M + j] (+)= sum_k PA(s)[i*D + k] * PB(s)[j*D + k], where
  /// PA(s) is the N x D matrix at A + s * StrideA and PB(s) the M x D
  /// matrix at B + s * StrideB. The contraction is lane-ordered per output
  /// element. Rows of PA(s) that are entirely zero short-circuit: the
  /// output row is zero-filled when not accumulating (so C may start
  /// uninitialized) and left untouched when accumulating.
  /// A stride of 0 marks that panel as shared by every plane: the kernel
  /// copies it once into \p Pack (caller scratch of dotPlanesPackDoubles()
  /// doubles, 64-byte aligned internally) and streams all planes through
  /// the cache-resident copy; a shared A panel additionally hoists its
  /// per-row zero-skip flags so they are scanned once instead of once per
  /// plane. Packing is a bit copy, so the result is bit-identical to S
  /// one-plane calls. Pack may be null, in which case panels are streamed
  /// unpacked (still bit-identical, just slower); S = 1 with a null Pack
  /// is the plain single-matrix kernel behind matmulTransposedB.
  void (*DotPlanesTransposedB)(const double *A, size_t StrideA, size_t N,
                               const double *B, size_t StrideB, size_t M,
                               size_t D, size_t S, double *C, size_t StrideC,
                               bool Accumulate, double *Pack);

  /// Row[i] *= Lambda[i] for each of R rows at Rows + r * Stride: the
  /// broadcast row-scale behind Zonotope::scalePerVarInPlace. Elementwise
  /// (one multiply per element), so bit-identical on every ISA.
  void (*RowScale)(const double *Lambda, double *Rows, size_t R,
                   size_t Stride, size_t N);

  /// One step of the Eq. 6 partner loop for a group of up to Lanes output
  /// rows I that share row J's partners. Lane r stands for one row and,
  /// when bit r of Active is set, runs for t in 0..T-1 ascending:
  ///   G = Dot(a_r, Panel + t * D, D);
  ///   t == Self[r]:  G > 0 ? Hi[r] += G : Lo[r] += G;  (eps_s^2 in [0, 1])
  ///   otherwise:     Hi[r] += |G|;  Lo[r] -= |G|;  (eps_s eps_t in [-1, 1])
  /// a_r is the lane's outer-symbol slice, packed k-major with the other
  /// rows' slices: a_r[k] = A[k * Lanes + r]. Panel holds J's T partner
  /// slices back to back (D doubles each). Self[r] >= T means the lane's
  /// symbol is not a partner. A (per k), Self, Lo and Hi hold Lanes
  /// entries; a lane whose Active bit is clear (past its row's symbol
  /// list, or past the last row) may hold anything, NaN included, and is
  /// never written.
  /// Each lane runs exactly the operations Dot runs on one row (D < L: one
  /// FMA chain; else one chain per k % L, the pairwise-halving reduction,
  /// the serial tail), then the fold in ascending t, so the result is
  /// bit-identical to T calls of Dot and the sequential fold per row.
  /// Running over rows lets Lanes folds advance at once instead of one
  /// serial (Lo, Hi) chain per output element. The scalar table (one
  /// lane) interleaves four partners' mul + add chains instead.
  void (*EpsPairs)(const double *A, unsigned Active, const double *Panel,
                   size_t T, size_t D, const size_t *Self, double *Lo,
                   double *Hi);
};

/// The widest Lanes of any table (AVX-512): callers size per-row
/// EpsPairs arrays with it.
constexpr size_t MaxLanes = 8;

/// Scratch doubles a DotPlanesTransposedB call needs for its packed
/// shared panel: the shared-A case stores N hoisted zero-row flags ahead
/// of the N x D panel, the shared-B case just the M x D panel; both pad 8
/// doubles so the kernel can 64-byte align the buffer. Covers either
/// sharing direction, so one buffer serves both halves of a plane run.
inline size_t dotPlanesPackDoubles(size_t N, size_t M, size_t D) {
  size_t APanel = N * D + N, BPanel = M * D;
  return (APanel > BPanel ? APanel : BPanel) + 8;
}

/// The currently dispatched kernel table. The first call resolves the
/// ISA: DEEPT_ISA when set (malformed or unavailable values abort with a
/// clear error, like DEEPT_THREADS), else the widest ISA this binary was
/// compiled with that the CPU supports.
const Kernels &kernels();

/// The Isa tag of kernels().
Isa currentIsa();

/// Canonical lower-case name ("scalar", "avx2", "avx512").
const char *isaName(Isa I);

/// Strict parse of an ISA name: "scalar", "avx2", "avx512" or "native"
/// (the widest available). Returns false and fills \p Err for anything
/// else -- the --isa flag and DEEPT_ISA go through this so typos fail
/// loudly instead of silently running scalar.
bool parseIsa(const std::string &Text, Isa &Out, std::string *Err = nullptr);

/// True when \p I was compiled into this binary and the CPU supports it.
bool isaAvailable(Isa I);

/// The widest available ISA (what "native" resolves to).
Isa bestAvailableIsa();

/// Switches the dispatched table to \p I. Fails (returning false and
/// filling \p Err) when the ISA is not available; on success updates the
/// kernel.isa gauge. Must not be called from inside a parallel region.
bool setIsa(Isa I, std::string *Err = nullptr);

namespace detail {

/// 64-byte aligns a caller-provided DotPlanesTransposedB pack buffer
/// (dotPlanesPackDoubles reserves the 8-double slack this may consume).
inline double *alignPack64(double *P) {
  return reinterpret_cast<double *>(
      (reinterpret_cast<std::uintptr_t>(P) + 63) & ~std::uintptr_t(63));
}

/// Scalar emulation of the lane-ordered FMA dot product the SIMD kernels
/// implement: element k accumulates into lane k % Lanes via fma; lanes
/// then reduce pairwise (lane i adds lane i + W/2, halving W until one
/// lane remains -- exactly the vector-extract-and-add cascade of the
/// AVX2/AVX-512 horizontal sums); the tail FMA-accumulates serially.
/// Lanes == 1 reproduces the scalar kernel (plain mul + add, no FMA).
double dotLanes(const double *X, const double *Y, size_t N, size_t Lanes);

/// Lane-ordered plain-add sum with the same reduction order.
double sumLanes(const double *X, size_t N, size_t Lanes);

} // namespace detail

} // namespace tensor
} // namespace deept

#endif // DEEPT_TENSOR_KERNELS_H
