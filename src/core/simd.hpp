// Explicit SIMD kernels for the independent-lane dense scans, behind a
// runtime-dispatched function-pointer table.
//
// The serial x recurrence (x_i = x_succ(i) * F_i) is a loop-carried
// multiply chain whose operand ORDER defines the bit-identity contract —
// it cannot be vectorized without reassociating, so it stays scalar
// forever. The two loops this layer ports are *independent-lane*: each
// lane (a row entry) computes a value no other lane reads, and the only
// cross-lane fold is an exact one. Each runs on a path the paper's
// figures or the daemon take:
//
//   * row_max   — row reductions for max_expected_products /
//                 period_upper_bound (every H2/H3 solve) and the
//                 incremental evaluator's rebuild (max is exact in any
//                 order)
//   * leq_mask  — the bottleneck assignment's threshold row scan (every
//                 oto probe; exact comparisons to a bitmask)
//
// Variants: a mandatory scalar reference, AVX2 on x86-64, NEON on
// aarch64. Each ISA lives in its own translation unit (simd_<isa>.cpp)
// compiled with exactly the flags it needs — the rest of the library is
// never built with -mavx2, so the baseline binary stays runnable on any
// host and the compiler cannot leak wider instructions into non-kernel
// code. simd::active() picks the widest variant the running CPU supports
// (CPUID probing via __builtin_cpu_supports) the first time it is called;
// tests and benches pin specific variants through simd::force() or the
// MF_SIMD environment variable (e.g. MF_SIMD=scalar).
//
// Bit-identity contract: for identical inputs, every table produces
// byte-identical outputs to the scalar table. The enforcement is
// tests/test_simd.cpp (randomized per-kernel equivalence plus end-to-end
// solver equivalence across every scenario family, per available ISA) and
// the bit-equality gate in bench_kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace mf::core::simd {

/// Instruction-set variants a kernel table can be built for. Order is
/// narrow-to-wide within an architecture; dispatch picks the widest
/// available.
enum class Isa : int {
  kScalar = 0,
  kNeon,
  kAvx2,
};

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// One ISA variant: a function pointer per kernel. All pointers are
/// always non-null. Raw pointers + sizes rather than spans: the hot call
/// sites already hold unchecked pointers, and the indirection boundary
/// should not re-introduce bounds plumbing.
struct KernelTable {
  Isa isa = Isa::kScalar;

  /// max of values[0..count); requires count >= 1. Max of doubles is the
  /// same value in any association order, so wide folds are exact.
  double (*row_max)(const double* values, std::size_t count);

  /// words[j / 64] bit (j % 64) = (row[j] <= threshold) for j in
  /// [0, count); all (count + 63) / 64 words are fully written (tail bits
  /// zero). Exact comparisons — bit-safe in any order.
  void (*leq_mask)(const double* row, double threshold, std::size_t count,
                   std::uint64_t* words);
};

/// The dispatched table: the widest ISA this host supports among the
/// compiled-in variants, unless overridden by force() or the MF_SIMD
/// environment variable (read at first use and again by
/// reset_dispatch()). Never null; at minimum the scalar table. The
/// pointer may change only via force() or reset_dispatch(), so callers
/// may cache the reference for the duration of one operation but should
/// re-read it per top-level call.
[[nodiscard]] const KernelTable& active() noexcept;

/// Every table compiled into this binary AND runnable on this host,
/// scalar first, then ascending width.
[[nodiscard]] std::span<const KernelTable* const> available() noexcept;

/// Pins `active()` to a specific variant — the test/bench hook that
/// forces every variant through the same dispatch point the production
/// code uses. Returns false (and changes nothing) when the variant is not
/// available on this host/build.
bool force(Isa isa) noexcept;

/// Restores the default dispatch choice: the table MF_SIMD names, as the
/// environment holds it now, or the widest available when it is unset or
/// names no available table.
void reset_dispatch() noexcept;

}  // namespace mf::core::simd
