// NEON variant of the SIMD kernel table (2 double lanes). Advanced SIMD
// with double lanes is the aarch64 architectural baseline, so no extra
// compile flags are needed; the TU compiles to the nullptr stub on every
// other architecture.
#include "core/simd_internal.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cstdint>

namespace {

struct VNeon {
  static constexpr std::size_t W = 2;
  using reg = float64x2_t;
  using mask = uint64x2_t;
  static reg load(const double* p) { return vld1q_f64(p); }
  static reg broadcast(double v) { return vdupq_n_f64(v); }
  static reg max(reg a, reg b) { return vmaxq_f64(a, b); }
  static mask le(reg a, reg b) { return vcleq_f64(a, b); }
  static unsigned to_bits(mask m) {
    return static_cast<unsigned>(vgetq_lane_u64(m, 0) & 1) |
           (static_cast<unsigned>(vgetq_lane_u64(m, 1) & 1) << 1);
  }
  static double reduce_max(reg v) {
    const double a = vgetq_lane_f64(v, 0);
    const double b = vgetq_lane_f64(v, 1);
    return a < b ? b : a;
  }
};

}  // namespace

#define MF_SIMD_V VNeon
#define MF_SIMD_ISA Isa::kNeon
#define MF_SIMD_ACCESSOR neon_table
#include "core/simd_lanes.inc"

#else

namespace mf::core::simd::detail {
const KernelTable* neon_table() noexcept { return nullptr; }
}  // namespace mf::core::simd::detail

#endif
