//===- tensor/KernelsAvx512.cpp - AVX-512 kernel table ---------*- C++ -*-===//
//
// Compiled with -mavx512f -mavx512dq -mavx512vl -ffp-contract=off. The
// kernel bodies live in tensor/KernelsSimd.inc; this file supplies their
// 8-lane vector traits.
//
//===----------------------------------------------------------------------===//

#include "tensor/Kernels.h"

#if DEEPT_HAVE_AVX512

#include <immintrin.h>

namespace deept {
namespace tensor {
namespace detail {
namespace {

struct V {
  static constexpr size_t Lanes = 8;
  using Reg = __m512d;

  static Reg zero() { return _mm512_setzero_pd(); }
  static Reg set1(double X) { return _mm512_set1_pd(X); }
  static Reg load(const double *P) { return _mm512_loadu_pd(P); }
  static void store(double *P, Reg X) { _mm512_storeu_pd(P, X); }
  static Reg add(Reg A, Reg B) { return _mm512_add_pd(A, B); }
  static Reg sub(Reg A, Reg B) { return _mm512_sub_pd(A, B); }
  static Reg mul(Reg A, Reg B) { return _mm512_mul_pd(A, B); }
  // max and reduce spell their all-lanes operations as zero-masked ones
  // with a full mask: the same unmasked vmaxpd / vextractf64x4, but
  // GCC's unmasked intrinsics pass an _mm512_undefined_* placeholder that
  // -Wmaybe-uninitialized reports at every inlined use.
  static Reg max(Reg A, Reg B) { return _mm512_maskz_max_pd(0xFF, A, B); }
  static Reg abs(Reg X) { return _mm512_abs_pd(X); }
  static Reg fma(Reg A, Reg B, Reg C) { return _mm512_fmadd_pd(A, B, C); }

  /// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)): halve 512 -> 256, then the
  /// 4-lane cascade, matching detail::dotLanes for Lanes == 8.
  static double reduce(Reg X) {
    __m256d Half = _mm256_add_pd(_mm512_maskz_extractf64x4_pd(0xFF, X, 0),
                                 _mm512_maskz_extractf64x4_pd(0xFF, X, 1));
    __m128d Lo = _mm256_castpd256_pd128(Half);
    __m128d Hi = _mm256_extractf128_pd(Half, 1);
    __m128d S = _mm_add_pd(Lo, Hi);
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
extern const Kernels Avx512Kernels;
constinit const Kernels Avx512Kernels = makeTable(Isa::Avx512);

} // namespace detail
} // namespace tensor
} // namespace deept

#endif // DEEPT_HAVE_AVX512
