// The unified solver API: every mapping method the library serves — the
// six constructive heuristics, the polynomial one-to-one solver, the
// combinatorial branch-and-bound and the brute-force trust anchor — is
// exposed behind one `Solver` interface, discovered
// through the `SolverRegistry` and executed through `SolveService`
// (solve/service.hpp; `run()` is a one-request service, `BatchSolver` a fan
// of requests over a thread pool).
//
// A solve is described by a problem instance plus a `SolveParams` bag
// (seed, node budget, local-search refinement, time limit) and yields a
// `SolveResult`: the mapping (when one exists), its exact analytic period,
// a `Status` classifying the outcome, and diagnostics (nodes explored,
// wall time, refinement gain) that the CLI and benches surface.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/mapping.hpp"
#include "core/platform.hpp"
#include "extensions/local_search.hpp"

namespace mf::solve {

/// Outcome classification shared by every solver family.
enum class Status {
  kOptimal,          ///< mapping proven optimal for its rule set
  kFeasible,         ///< valid mapping, no optimality claim (heuristics)
  kInfeasible,       ///< no mapping exists (p > m) or solver inapplicable
  kBudgetExhausted,  ///< node/time budget ran out before a proof; a best
                     ///< incumbent may still be attached
  kError,            ///< the solver threw (or never ran); diagnostics.note
                     ///< carries the message. Every execution path, run()
                     ///< included, converts per-request exceptions this
                     ///< way, so one bad request cannot kill a 10k-request
                     ///< sweep.
};

[[nodiscard]] std::string to_string(Status status);

/// How a solve interacts with the result cache of the `SolveService` that
/// runs it (solve/service.hpp; `run()` uses the process-wide `ResultCache`,
/// solve/cache.hpp). The cache key is (problem digest, effective solver id,
/// canonicalized params), so a hit is guaranteed to be the result the
/// solver would recompute.
enum class CachePolicy {
  kOff,        ///< never touch the cache (the default)
  kRead,       ///< serve hits, but never store fresh results
  kReadWrite,  ///< serve hits and store fresh results
};

[[nodiscard]] std::string to_string(CachePolicy policy);

/// Uniform parameter bag. Every solver reads the subset it understands and
/// ignores the rest, so one bag can drive a heterogeneous batch.
struct SolveParams {
  /// Seed for the solver's private RNG stream. Only randomized solvers
  /// (H1) consume it; deterministic solvers ignore it.
  std::uint64_t seed = 1;
  /// Node budget for the tree-search solver (bnb). Unset keeps its own
  /// default; a set value bounds the search, and 0 means unlimited
  /// search.
  std::optional<std::uint64_t> max_nodes;
  /// Append a local-search refinement stage (the "+ls" composite) to
  /// whatever the solver produces. Interpreted by `SolveService` (and so
  /// by `run()`); equivalent to suffixing the solver id with "+ls".
  bool local_search = false;
  /// Options for the refinement stage when `local_search` is on (or the id
  /// carries "+ls").
  ext::RefinementOptions refinement;
  /// Soft wall-clock limit in milliseconds, checked between stages: when
  /// the base solve alone exceeds it, the refinement stage is skipped.
  /// 0 means unlimited. Solvers do not interrupt mid-search; use
  /// `max_nodes` to bound the search itself.
  double time_limit_ms = 0.0;
  /// Result-cache interaction for this solve; the `SolveService` that runs
  /// it consults its backend when it is not kOff (`run()`: the process-wide
  /// cache). The policy itself is execution advice, not problem content —
  /// it is never part of the cache key.
  CachePolicy cache = CachePolicy::kOff;
  /// Provenance label: the scenario/failure-model id that produced the
  /// problem (empty for problems built or loaded directly). Stamped into
  /// `diagnostics.scenario` and folded into the cache key, so sweep logs
  /// can attribute every cache hit to its failure regime and two regimes
  /// never share an entry even if their effective matrices coincide.
  std::string scenario;
};

struct SolveResult {
  Status status = Status::kInfeasible;
  /// Best mapping found. Present for kOptimal and kFeasible; may also be
  /// present for kBudgetExhausted (the incumbent when the budget died).
  std::optional<core::Mapping> mapping;
  /// Exact analytic period (ms/product) of `mapping`; 0 when absent.
  double period = 0.0;

  struct Diagnostics {
    std::string solver_id;             ///< resolved id, e.g. "H4w+ls"
    std::uint64_t nodes_explored = 0;  ///< tree-search nodes (0 for closed-form)
    double wall_time_ms = 0.0;         ///< end-to-end solve time
    bool refined = false;  ///< a "+ls" refinement stage ran on the mapping
    double refiner_improvement_ms = 0.0;  ///< period reduction from "+ls"
    std::size_t refiner_moves = 0;        ///< moves the refiner applied
    bool refiner_converged = false;  ///< refiner hit a local optimum (vs pass budget)
    bool cache_hit = false;  ///< result was served from the result cache, not re-solved
    bool dedup_joined = false;  ///< result was shared from a concurrent identical
                                ///< in-flight solve (SolveService single-flight)
    std::string scenario;  ///< scenario/model id from SolveParams::scenario ("" = direct)
    std::string note;                  ///< human-readable detail (why infeasible, ...)
  };
  Diagnostics diagnostics;

  /// True when the solve produced a usable mapping with a success status.
  [[nodiscard]] bool ok() const noexcept {
    return status == Status::kOptimal || status == Status::kFeasible;
  }
  [[nodiscard]] bool has_mapping() const noexcept { return mapping.has_value(); }
};

/// Interface every mapping method implements. Implementations are
/// stateless and thread-safe: one instance may serve concurrent solves.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry id, e.g. "H2", "oto", "bnb", "brute".
  [[nodiscard]] virtual std::string id() const = 0;
  /// One-line human description for `--list` style output.
  [[nodiscard]] virtual std::string description() const = 0;

  [[nodiscard]] virtual SolveResult solve(const core::Problem& problem,
                                          const SolveParams& params) const = 0;
};

/// The registry id a request actually resolves to: appends "+ls" when
/// `params.local_search` asks for refinement and the id lacks the suffix.
[[nodiscard]] std::string effective_solver_id(std::string solver_id, const SolveParams& params);

/// Runs `solver` and stamps `diagnostics.solver_id` and
/// `diagnostics.wall_time_ms` into the result. Every solve `SolveService`
/// runs funnels through this.
[[nodiscard]] SolveResult timed_solve(const Solver& solver, const core::Problem& problem,
                                      const SolveParams& params);

/// The facade: one request through a serial `SolveService` over the
/// process-wide result cache (solve/cache.hpp), honouring `params.cache`.
/// Resolves `solver_id` in the global `SolverRegistry` (composites like
/// "H4w+ls" included; `params.local_search` appends the refinement stage
/// for you), solves, and times it. Throws std::invalid_argument listing the
/// known ids when the id is unknown; a solver that throws comes back as a
/// Status::kError result with its message in `diagnostics.note`.
[[nodiscard]] SolveResult run(const core::Problem& problem, const std::string& solver_id,
                              const SolveParams& params = {});

}  // namespace mf::solve
