#include "core/pair_kernel.h"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define DDP_PAIR_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace ddp::internal {

namespace {

// Copies the lane pointers, repeating lane 0 into the unused lanes so the
// kernels always run all kPairLanes lanes with fixed trip counts.
void PadLanes(const double* const* a, const double* const* b, size_t count,
              const double** pa, const double** pb) {
  for (size_t k = 0; k < kPairLanes; ++k) {
    pa[k] = a[k < count ? k : 0];
    pb[k] = b[k < count ? k : 0];
  }
}

#ifdef DDP_PAIR_KERNEL_X86

// Adds dimensions d..d+3 of lanes pa[0..3]/pb[0..3] to acc (one lane per
// element). Each row's four differences are squared in row-major order,
// transposed so register c_i holds dimension d+i of all four lanes, and
// added to the accumulator in ascending dimension order — exactly the
// rounding sequence of the scalar loop.
__attribute__((target("avx2"), always_inline)) inline __m256d AddFourDims(
    __m256d acc, const double* const* pa, const double* const* pb, size_t d) {
  __m256d r0 = _mm256_sub_pd(_mm256_loadu_pd(pa[0] + d),
                             _mm256_loadu_pd(pb[0] + d));
  __m256d r1 = _mm256_sub_pd(_mm256_loadu_pd(pa[1] + d),
                             _mm256_loadu_pd(pb[1] + d));
  __m256d r2 = _mm256_sub_pd(_mm256_loadu_pd(pa[2] + d),
                             _mm256_loadu_pd(pb[2] + d));
  __m256d r3 = _mm256_sub_pd(_mm256_loadu_pd(pa[3] + d),
                             _mm256_loadu_pd(pb[3] + d));
  r0 = _mm256_mul_pd(r0, r0);
  r1 = _mm256_mul_pd(r1, r1);
  r2 = _mm256_mul_pd(r2, r2);
  r3 = _mm256_mul_pd(r3, r3);
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(t0, t2, 0x20));  // dim d
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(t1, t3, 0x20));  // d + 1
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(t0, t2, 0x31));  // d + 2
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(t1, t3, 0x31));  // d + 3
  return acc;
}

// The dimension tail (dim % 4) stays inside this function: calling out to
// non-AVX code from here would skip the vzeroupper the compiler emits on
// return and leave the upper register halves dirty, which slows every SSE
// instruction the caller runs afterwards.
__attribute__((target("avx2"))) void PairLanesAvx2Impl(
    const double* const* a, const double* const* b, size_t count, size_t dim,
    double* out) {
  const double* pa[kPairLanes];
  const double* pb[kPairLanes];
  PadLanes(a, b, count, pa, pb);
  __m256d lo = _mm256_setzero_pd();  // lanes 0..3
  __m256d hi = _mm256_setzero_pd();  // lanes 4..7
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    lo = AddFourDims(lo, pa, pb, d);
    hi = AddFourDims(hi, pa + 4, pb + 4, d);
  }
  double s[kPairLanes];
  _mm256_storeu_pd(s, lo);
  _mm256_storeu_pd(s + 4, hi);
  for (; d < dim; ++d) {
    for (size_t k = 0; k < kPairLanes; ++k) {
      const double diff = pa[k][d] - pb[k][d];
      s[k] += diff * diff;
    }
  }
  for (size_t k = 0; k < count; ++k) out[k] = s[k];
}

#endif  // DDP_PAIR_KERNEL_X86

}  // namespace

void PairLanesScalar(const double* const* a, const double* const* b,
                     size_t count, size_t dim, double* out) {
  const double* pa[kPairLanes];
  const double* pb[kPairLanes];
  PadLanes(a, b, count, pa, pb);
  double s[kPairLanes] = {};
  for (size_t d = 0; d < dim; ++d) {
    for (size_t k = 0; k < kPairLanes; ++k) {
      const double diff = pa[k][d] - pb[k][d];
      s[k] += diff * diff;
    }
  }
  for (size_t k = 0; k < count; ++k) out[k] = s[k];
}

#ifdef DDP_PAIR_KERNEL_X86
const PairLaneKernel kPairLanesAvx2 = &PairLanesAvx2Impl;
#else
const PairLaneKernel kPairLanesAvx2 = nullptr;
#endif

bool CpuHasAvx2() {
#ifdef DDP_PAIR_KERNEL_X86
  // __builtin_cpu_supports reads state __builtin_cpu_init fills in; a call
  // before that (e.g. from a namespace-scope initializer) reports false.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

PairLaneKernel SelectedPairLaneKernel() {
  static const PairLaneKernel kernel =
      CpuHasAvx2() ? kPairLanesAvx2 : &PairLanesScalar;
  return kernel;
}

}  // namespace ddp::internal
