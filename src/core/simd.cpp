// Scalar reference table + runtime dispatch for the SIMD kernel layer.
//
// The scalar table is built from the same width-generic bodies as the
// wide variants, with a one-lane vector type whose ops are plain double
// expressions — so "scalar" is not a separate implementation that can
// drift, it IS the generic code at W = 1. Dispatch probes the CPU once
// (GCC/Clang __builtin_cpu_supports on x86-64; NEON is baseline on
// aarch64), honors an MF_SIMD environment override (scalar/neon/avx2),
// and exposes force() so tests and benches can pin every variant through
// the exact dispatch point production code uses.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/simd.hpp"
#include "core/simd_internal.hpp"

namespace mf::core::simd {

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kNeon: return "neon";
    case Isa::kAvx2: return "avx2";
  }
  return "unknown";
}

}  // namespace mf::core::simd

namespace {

/// One-lane "vector": every op is the plain double expression the
/// reference implementations use.
struct VScalar {
  static constexpr std::size_t W = 1;
  using reg = double;
  using mask = bool;
  static reg load(const double* p) { return *p; }
  static reg broadcast(double v) { return v; }
  static reg max(reg a, reg b) { return a < b ? b : a; }
  static mask le(reg a, reg b) { return a <= b; }
  static unsigned to_bits(mask m) { return m ? 1u : 0u; }
  static double reduce_max(reg v) { return v; }
};

}  // namespace

#define MF_SIMD_V VScalar
#define MF_SIMD_ISA Isa::kScalar
#define MF_SIMD_ACCESSOR scalar_table
#include "core/simd_lanes.inc"
#undef MF_SIMD_V
#undef MF_SIMD_ISA
#undef MF_SIMD_ACCESSOR

namespace mf::core::simd {

namespace {

bool host_supports(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(__x86_64__) || defined(_M_X64)
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kNeon:
      return false;
#elif defined(__aarch64__)
    case Isa::kNeon:
      return true;  // architectural baseline of aarch64
    case Isa::kAvx2:
      return false;
#else
    default:
      return false;
#endif
  }
  return false;
}

/// Compiled-in variants runnable on this host, scalar first then
/// ascending width — dispatch picks the back.
const std::vector<const KernelTable*>& available_tables() {
  static const std::vector<const KernelTable*> tables = [] {
    std::vector<const KernelTable*> found;
    const KernelTable* candidates[] = {
        detail::scalar_table(),
        detail::neon_table(),
        detail::avx2_table(),
    };
    for (const KernelTable* table : candidates) {
      if (table != nullptr && host_supports(table->isa)) found.push_back(table);
    }
    return found;
  }();
  return tables;
}

const KernelTable* default_table() {
  const auto& tables = available_tables();
  if (const char* env = std::getenv("MF_SIMD"); env != nullptr) {
    for (const KernelTable* table : tables) {
      if (std::strcmp(env, isa_name(table->isa)) == 0) return table;
    }
    // Unknown or unavailable name: fall through to the widest variant
    // rather than failing — the override is a tuning knob, not config.
  }
  return tables.back();  // scalar is always present
}

std::atomic<const KernelTable*>& active_slot() {
  static std::atomic<const KernelTable*> slot{default_table()};
  return slot;
}

}  // namespace

const KernelTable& active() noexcept { return *active_slot().load(std::memory_order_acquire); }

std::span<const KernelTable* const> available() noexcept {
  const auto& tables = available_tables();
  return {tables.data(), tables.size()};
}

bool force(Isa isa) noexcept {
  for (const KernelTable* table : available_tables()) {
    if (table->isa == isa) {
      active_slot().store(table, std::memory_order_release);
      return true;
    }
  }
  return false;
}

void reset_dispatch() noexcept {
  active_slot().store(default_table(), std::memory_order_release);
}

}  // namespace mf::core::simd
