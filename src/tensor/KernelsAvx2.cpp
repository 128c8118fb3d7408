//===- tensor/KernelsAvx2.cpp - AVX2+FMA kernel table ----------*- C++ -*-===//
//
// Compiled with -mavx2 -mfma -ffp-contract=off. The kernel bodies live in
// tensor/KernelsSimd.inc; this file supplies their 4-lane vector traits.
//
//===----------------------------------------------------------------------===//

#include "tensor/Kernels.h"

#if DEEPT_HAVE_AVX2

#include <immintrin.h>

namespace deept {
namespace tensor {
namespace detail {
namespace {

struct V {
  static constexpr size_t Lanes = 4;
  using Reg = __m256d;

  static Reg zero() { return _mm256_setzero_pd(); }
  static Reg set1(double X) { return _mm256_set1_pd(X); }
  static Reg load(const double *P) { return _mm256_loadu_pd(P); }
  static void store(double *P, Reg X) { _mm256_storeu_pd(P, X); }
  static Reg add(Reg A, Reg B) { return _mm256_add_pd(A, B); }
  static Reg sub(Reg A, Reg B) { return _mm256_sub_pd(A, B); }
  static Reg mul(Reg A, Reg B) { return _mm256_mul_pd(A, B); }
  static Reg max(Reg A, Reg B) { return _mm256_max_pd(A, B); }
  static Reg abs(Reg X) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), X); }
  static Reg fma(Reg A, Reg B, Reg C) { return _mm256_fmadd_pd(A, B, C); }

  /// Pairwise-halving horizontal sum: (l0+l2) + (l1+l3), matching
  /// detail::dotLanes' reduction order for Lanes == 4.
  static double reduce(Reg X) {
    __m128d Lo = _mm256_castpd256_pd128(X);
    __m128d Hi = _mm256_extractf128_pd(X, 1);
    __m128d S = _mm_add_pd(Lo, Hi); // (l0+l2, l1+l3)
    return _mm_cvtsd_f64(S) + _mm_cvtsd_f64(_mm_unpackhi_pd(S, S));
  }
};

} // namespace
} // namespace detail
} // namespace tensor
} // namespace deept

#include "tensor/KernelsSimd.inc"

namespace deept {
namespace tensor {
namespace detail {

// extern: const at namespace scope would otherwise get internal linkage,
// and the dispatcher in Kernels.cpp references this table by name.
extern const Kernels Avx2Kernels;
constinit const Kernels Avx2Kernels = makeTable(Isa::Avx2);

} // namespace detail
} // namespace tensor
} // namespace deept

#endif // DEEPT_HAVE_AVX2
