// AVX2 variant of the SIMD kernel table (4 double lanes). This TU — and
// only this TU — is compiled with -mavx2 (see CMakeLists: per-TU ISA flags
// keep wider instructions out of the rest of the library, so the binary
// still runs on pre-AVX2 hosts and simply never dispatches here).
// -ffp-contract=off on the TU guarantees the compiler cannot fuse separate
// multiply and add rounds into an FMA the scalar table performs as two
// roundings. It is the only wide x86-64 table; docs/performance.md ("SIMD
// variants") says why.
#include "core/simd_internal.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace {

struct VAvx2 {
  static constexpr std::size_t W = 4;
  using reg = __m256d;
  using mask = __m256d;  // all-ones / all-zeros lanes from the compares
  static reg load(const double* p) { return _mm256_loadu_pd(p); }
  static reg broadcast(double v) { return _mm256_set1_pd(v); }
  static reg max(reg a, reg b) { return _mm256_max_pd(a, b); }
  static mask le(reg a, reg b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static unsigned to_bits(mask m) { return static_cast<unsigned>(_mm256_movemask_pd(m)); }
  static double reduce_max(reg v) {
    __m128d folded = _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_max_sd(folded, _mm_unpackhi_pd(folded, folded)));
  }
};

}  // namespace

#define MF_SIMD_V VAvx2
#define MF_SIMD_ISA Isa::kAvx2
#define MF_SIMD_ACCESSOR avx2_table
#include "core/simd_lanes.inc"

#else

namespace mf::core::simd::detail {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace mf::core::simd::detail

#endif
