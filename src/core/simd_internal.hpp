// Internal seam between the dispatcher (simd.cpp) and the per-ISA
// translation units. Each simd_<isa>.cpp always defines its accessor;
// when the TU is compiled without that ISA enabled (wrong architecture or
// flags absent — simd_avx2.cpp off x86-64) the accessor returns nullptr
// and the dispatcher simply never offers the variant.
#pragma once

#include "core/simd.hpp"

namespace mf::core::simd::detail {

const KernelTable* scalar_table() noexcept;  // never null
const KernelTable* avx2_table() noexcept;

}  // namespace mf::core::simd::detail
