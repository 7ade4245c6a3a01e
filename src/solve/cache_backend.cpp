#include "solve/cache_backend.hpp"

#include <bit>

namespace mf::solve {

std::optional<CachePolicy> cache_policy_from_string(const std::string& text) {
  if (text == "off") return CachePolicy::kOff;
  if (text == "read") return CachePolicy::kRead;
  if (text == "rw" || text == "read-write") return CachePolicy::kReadWrite;
  return std::nullopt;
}

namespace {

/// -0.0 folds into +0.0 so the two spellings share a key; everything else
/// (NaN included) keys on its exact bit pattern, which keeps operator==
/// and the hash consistent — numeric double comparison would make a NaN
/// key unequal to itself.
std::uint64_t canonical_bits(double value) noexcept {
  return std::bit_cast<std::uint64_t>(value == 0.0 ? 0.0 : value);
}

}  // namespace

CacheKey make_cache_key(const core::Digest& problem_digest, const std::string& effective_id,
                        const SolveParams& params) {
  CacheKey key;
  key.problem = problem_digest;
  key.solver_id = effective_id;
  key.scenario = params.scenario;
  key.seed = params.seed;
  key.has_max_nodes = params.max_nodes.has_value();
  key.max_nodes = params.max_nodes.value_or(0);
  key.time_limit_ms_bits = canonical_bits(params.time_limit_ms);
  if (effective_id.ends_with("+ls")) {
    key.refine_max_passes = params.refinement.max_passes;
    key.refine_allow_swaps = params.refinement.allow_swaps;
    key.refine_first_improvement = params.refinement.first_improvement;
    key.refine_min_relative_gain_bits = canonical_bits(params.refinement.min_relative_gain);
  }
  core::DigestBuilder builder;
  builder.add_u64(key.problem.hi).add_u64(key.problem.lo);
  builder.add_bytes(key.solver_id);
  builder.add_bytes(key.scenario);
  builder.add_u64(key.seed);
  builder.add_u64(key.has_max_nodes ? key.max_nodes + 1 : 0);
  builder.add_u64(key.time_limit_ms_bits);
  builder.add_u64(key.refine_max_passes);
  builder.add_u64((key.refine_allow_swaps ? 1U : 0U) |
                  (key.refine_first_improvement ? 2U : 0U));
  builder.add_u64(key.refine_min_relative_gain_bits);
  const core::Digest digest = builder.finish();
  key.hash = digest.lo;
  key.hash_hi = digest.hi;
  return key;
}

}  // namespace mf::solve
