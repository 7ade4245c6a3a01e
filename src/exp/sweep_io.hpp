// Plain-text serialization of (partial) sweep results.
//
// Sharded figure sweeps run as separate processes (`mfsched --figure fig10
// --shard 0/4`), so each shard's raw trial outcomes must travel to the
// process that merges them. A shard file is a record in the one codec of
// support/record.hpp, which also sets the reader's rules: every period is a
// hexfloat, which round-trips the IEEE-754 bits exactly — merged results
// must be bit-identical to the unsharded run, so decimal shortening is not
// an option.
//
//   microfactory-sweep-shard v2
//   name fig10
//   description <free text to end of line>
//   variable tasks                      # tasks | types | machines
//   values <v_0> ... <v_{k-1}>
//   protocol <trials> <max_trials> <base_seed>
//   scenario-id <scenario id, e.g. iid>
//   scenario <tasks> <machines> <types> <time_min> <time_max>
//            <failure_min> <failure_max> <attachment> <integer_times>
//   model <shock_min> <shock_max> <window_count> <window_ms>
//         <factor_min> <factor_max> <mean_uptime_ms> <mean_repair_ms>
//   shard <index> <count>
//   methods <count>
//   method <require_proof> <solver_id> <display name to end of line>  # xK
//   point <index> <sweep_value> <outcome count>                       # then:
//   trial <index> ok <period per method, hexfloat>
//   trial <index> fail
//   end
//
// A loaded result carries everything `merge()` and the table/chart
// renderers need; method params are not round-tripped (a loaded shard is
// merge input, not a runnable spec).
#pragma once

#include <string>

#include "exp/runner.hpp"

namespace mf::exp {

/// Serializes a sharded partial result (see header comment for the format).
[[nodiscard]] std::string to_text(const SweepResult& result);

/// Parses a shard result; throws std::invalid_argument with a
/// line-specific message on malformed input.
[[nodiscard]] SweepResult sweep_shard_from_text(const std::string& text);

/// File helpers (throw std::invalid_argument on I/O failure).
void save_sweep_shard(const SweepResult& result, const std::string& path);
[[nodiscard]] SweepResult load_sweep_shard(const std::string& path);

}  // namespace mf::exp
