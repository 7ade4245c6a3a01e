// Internal seam between the dispatcher (simd.cpp) and the per-ISA
// translation units. Each simd_<isa>.cpp always defines its accessor;
// when the TU is compiled without that ISA enabled (wrong architecture or
// flags absent — simd_neon.cpp on x86-64, simd_avx2.cpp on aarch64) the
// accessor returns nullptr and the dispatcher simply never offers the
// variant.
#pragma once

#include "core/simd.hpp"

namespace mf::core::simd::detail {

const KernelTable* scalar_table() noexcept;  // never null
const KernelTable* avx2_table() noexcept;
const KernelTable* neon_table() noexcept;

}  // namespace mf::core::simd::detail
