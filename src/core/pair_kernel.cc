#include "core/pair_kernel.h"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define DDP_PAIR_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace ddp::internal {

void PackPanels(const double* const* rows, size_t n, size_t dim,
                double* out) {
  for (size_t p = 0; p < PanelCount(n); ++p, out += PanelStride(dim)) {
    const double* lane[kPanelLanes];
    for (size_t k = 0; k < kPanelLanes; ++k) {
      const size_t r = p * kPanelLanes + k;
      lane[k] = rows[r < n ? r : n - 1];
    }
    for (size_t d = 0; d < dim; ++d) {
      for (size_t k = 0; k < kPanelLanes; ++k) {
        out[d * kPanelLanes + k] = lane[k][d];
      }
    }
  }
}

void PanelScalar(const double* query, const double* panel, size_t dim,
                 double* out) {
  double s[kPanelLanes] = {};
  for (size_t d = 0; d < dim; ++d, panel += kPanelLanes) {
    const double q = query[d];
    for (size_t k = 0; k < kPanelLanes; ++k) {
      const double diff = panel[k] - q;
      s[k] += diff * diff;
    }
  }
  for (size_t k = 0; k < kPanelLanes; ++k) out[k] = s[k];
}

#ifdef DDP_PAIR_KERNEL_X86

namespace {

// Each dimension is one broadcast, two subtracts, two multiplies and two
// adds into the lanes 0..3 and 4..7 accumulators: per lane exactly the
// rounding sequence of the scalar loop, with no shuffles at all.
__attribute__((target("avx2"))) void PanelAvx2Impl(const double* query,
                                                   const double* panel,
                                                   size_t dim, double* out) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  for (size_t d = 0; d < dim; ++d, panel += kPanelLanes) {
    const __m256d q = _mm256_broadcast_sd(query + d);
    const __m256d a = _mm256_sub_pd(_mm256_loadu_pd(panel), q);
    const __m256d b = _mm256_sub_pd(_mm256_loadu_pd(panel + 4), q);
    lo = _mm256_add_pd(lo, _mm256_mul_pd(a, a));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(b, b));
  }
  _mm256_storeu_pd(out, lo);
  _mm256_storeu_pd(out + 4, hi);
}

}  // namespace

const PanelKernel kPanelAvx2 = &PanelAvx2Impl;
#else
const PanelKernel kPanelAvx2 = nullptr;
#endif  // DDP_PAIR_KERNEL_X86

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

PanelKernel SelectedPanelKernel() {
  static const PanelKernel kernel =
      CpuHasAvx2() ? kPanelAvx2 : &PanelScalar;
  return kernel;
}

}  // namespace ddp::internal
