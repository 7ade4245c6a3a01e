// mfsched — command-line scheduler for micro-factory problem files.
//
// The batch workflow a production engineer would actually run: load a
// problem file (the core/io.hpp text format, e.g. produced by a
// calibration campaign), solve it with any solver from the unified
// registry, optionally refine and simulate, and save the mapping.
//
//   mfsched <problem-file> [--method ID] [--refine] [--simulate N]
//           [--budget NODES] [--out mapping-file] [--seed S] [--cache MODE]
//           [--cache-dir DIR] [--cache-stats]
//   mfsched --list | --list-scenarios
//   mfsched --figure NAME [--scenario ID] [--scale K] [--cache MODE]
//           [--cache-dir DIR] [--cache-stats]
//           [--repeat R] [--shard i/N [--out shard-file]]
//   mfsched --merge <shard-file>... [--out FILE]
//   mfsched --cache-gc SIZE --cache-dir DIR
//
// `--shard i/N` + `--merge` is the one multi-process path. The caller
// starts and supervises the N shard processes (a shell `&` and `wait`,
// slurm, k8s jobs); `--merge --out` then writes the same bytes as the
// unsharded run's `--out`. `--cache-gc SIZE` shrinks a shared `--cache-dir`
// to the byte cap, evicting least-recently-used entries first, so long
// campaigns can point every worker at one directory indefinitely.
//
// `--method` accepts every registered solver id (try `--list`): the paper
// heuristics H1..H4f, the exact solvers bnb / brute, the one-to-one
// solver oto, and "+ls" composites such as H4w+ls. `exact` stays as an
// alias for bnb. `--refine` is shorthand for appending "+ls".
//
// `--figure` runs one sweep (the paper's fig05..fig12 plus the per-model
// scn-* sweeps) through the one execution engine, or one of two reports
// over them: `fig11` (fig10 normalized to the exact optimum) and `summary`
// (Section 7.4's factors from the optimal, over fig09 and fig10); `--out`
// then writes only the report's lines. `--scenario` swaps the
// failure regime instances are drawn under (try `--list-scenarios`):
// solvers plan against the model's effective rates and the table reports
// model-adjusted analytic periods. `--shard i/N` evaluates only shard i's
// deterministic slice of the (point, trial) pairs and writes a shard file;
// `--merge` recombines one file per shard into the complete result —
// bit-identical to the unsharded run.
//
// Caching: `--cache off|read|rw` sets the result-cache policy; with rw, a
// `--repeat`ed sweep re-solves nothing (the printed hit counters prove it).
// `--cache-dir DIR` gives the in-memory cache a persistent on-disk tier:
// results survive the process, so a FRESH mfsched pointed at a populated
// directory re-solves zero instances, and shard processes on one host can
// share a directory. `--cache-stats` prints the cache's
// hit/miss/eviction counters plus the solve-service counters (requests,
// cache hits, in-flight dedup joins, actual solver invocations) after any
// run.
//
// Every flag lives in one table (`kFlags`): an unknown `--name` or a value
// its kind cannot hold exits 2 before any mode runs, and `--help` prints
// its per-flag lines from the same table.
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "core/io.hpp"
#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/sweep_io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "sim/simulator.hpp"
#include "solve/cache.hpp"
#include "solve/disk_cache.hpp"
#include "solve/registry.hpp"
#include "solve/service.hpp"
#include "solve/solver.hpp"
#include "support/cli.hpp"
#include "support/thread_pool.hpp"

namespace {

/// `--figure fig11|summary`: reports over the paper sweeps rather than
/// sweeps of their own. Each names the sweeps it runs, in order, and
/// renders their results into its lines — all that `--out` writes.
struct Report {
  const char* title;
  std::vector<std::string> sweeps;
  std::string (*render)(const std::vector<mf::exp::SweepResult>& results);
};

/// The "mean period ratio to REF" block: the paper's "factor from optimal"
/// per method, averaged over the sweep's points.
std::string ratio_lines(const mf::exp::SweepResult& result, const std::string& reference) {
  std::string text =
      "mean period ratio to " + reference + " (the paper's \"factor from optimal\"):\n";
  for (const auto& [name, ratio] : result.mean_ratio_to(reference)) {
    char line[64];
    std::snprintf(line, sizeof line, "  %-4s %.2f\n", name.c_str(), ratio);
    text += line;
  }
  return text + "\n";
}

std::optional<Report> report_by_name(const std::string& name) {
  using Results = std::vector<mf::exp::SweepResult>;
  if (name == "fig11") {
    return Report{"Figure 10 normalized to the exact optimum (Figure 11)",
                  {"fig10"},
                  [](const Results& results) {
                    return ratio_lines(results[0], "MIP") +
                           "normalized series (period / optimal period):\n" +
                           results[0].ratio_table("MIP").to_string() + "\n";
                  }};
  }
  if (name == "summary") {
    return Report{"Section 7.4 factors from the optimal (fig09 vs OtO, fig10 vs MIP)",
                  {"fig09", "fig10"},
                  [](const Results& results) {
                    return ratio_lines(results[0], "OtO") + ratio_lines(results[1], "MIP") +
                           "paper vs measured summary:\n" +
                           mf::exp::summary_table(results[0], results[1]).to_string() + "\n";
                  }};
  }
  return std::nullopt;
}

/// Every name `--figure` accepts: the sweeps, then the reports.
std::string figure_names() { return mf::exp::figure_spec_names() + " fig11 summary"; }

/// Space-separated failure-regime ids, for --help and the unknown-id error.
std::string scenario_names() {
  std::string names;
  for (const std::string& id : mf::exp::scenario_ids()) {
    names += (names.empty() ? "" : " ") + id;
  }
  return names;
}

/// A report needs its sweeps' complete results, so it cannot be split
/// across shards; name the sweeps that can be.
int refuse_split_report(const std::string& name, const Report& report) {
  std::string sweeps;
  for (const std::string& sweep : report.sweeps) {
    sweeps += (sweeps.empty() ? "" : " and ") + sweep;
  }
  std::fprintf(stderr, "error: %s is a report over %s, not a sweep; --shard %s instead\n",
               name.c_str(), sweeps.c_str(), sweeps.c_str());
  return 2;
}

/// How `main` checks a flag's value before any mode runs.
enum class FlagValue {
  kUnchecked,  // a switch, or text its mode parses (paths, ids, i/N)
  kInt,        // a whole number of either sign
  kCount,      // a whole number >= 0 (read as an unsigned count)
  kNumber,     // a finite number
};

/// One row per flag mfsched reads: `main` refuses any other `--name`, and
/// `--help` prints its per-flag lines from here. Each '\n' in `help`
/// continues on an indented line; `choices`, when set, lists the live
/// names on the last one.
struct Flag {
  const char* name;
  const char* arg;  // value placeholder in --help; "" for a switch
  FlagValue kind;
  const char* help;
  std::string (*choices)() = nullptr;
};

const Flag kFlags[] = {
    {"method", "ID", FlagValue::kUnchecked,
     "registered solver id (--list) or +ls composite\n(default H4w)"},
    {"refine", "", FlagValue::kUnchecked, "appends +ls (local-search refinement) to --method"},
    {"simulate", "N", FlagValue::kCount, "validates the mapping with N simulated products"},
    {"budget", "NODES", FlagValue::kCount, "node budget for the tree-search solver (bnb)"},
    {"seed", "S", FlagValue::kInt,
     "RNG seed (default 1); with --figure, overrides the\nsweep's base seed"},
    {"out", "FILE", FlagValue::kUnchecked,
     "writes the mapping, the sweep's table and chart, a\nreport's lines, the shard file "
     "(--shard) or the merged\ntable (--merge)"},
    {"list", "", FlagValue::kUnchecked, "prints every registered solver id"},
    {"list-scenarios", "", FlagValue::kUnchecked,
     "prints every registered failure-model scenario id"},
    {"demo", "", FlagValue::kUnchecked, "writes demo_problem.txt instead of scheduling"},
    {"tasks", "N", FlagValue::kCount, "demo problem size (default 15 tasks)"},
    {"machines", "M", FlagValue::kCount, "demo problem size (default 6 machines)"},
    {"types", "P", FlagValue::kCount, "demo problem size (default 3 task types)"},
    {"figure", "NAME", FlagValue::kUnchecked, "runs a figure sweep or report:", figure_names},
    {"scenario", "ID", FlagValue::kUnchecked, "draws the sweep's instances under this failure model:",
     scenario_names},
    {"scale", "K", FlagValue::kInt, "divides the trials per point by K (below 1 reads as 1)"},
    {"repeat", "R", FlagValue::kInt, "runs the sweep R times in-process (below 1 reads as 1)"},
    {"shard", "i/N", FlagValue::kUnchecked, "runs only slice i of N and writes a shard file"},
    {"merge", "FILE...", FlagValue::kUnchecked,
     "recombines one shard file per shard into the full\nsweep table"},
    {"cache", "MODE", FlagValue::kUnchecked,
     "result-cache policy: off, read or rw (default off;\nrw with --cache-dir or --connect)"},
    {"cache-dir", "DIR", FlagValue::kUnchecked,
     "persistent on-disk result cache layered under memory\n(implies --cache rw unless "
     "overridden); a fresh process\npointed at a populated dir re-solves nothing"},
    {"cache-gc", "SIZE", FlagValue::kUnchecked,
     "shrinks --cache-dir to SIZE bytes (K/M/G suffixes),\nevicting least-recently-used "
     "entries first"},
    {"cache-gc-ttl", "AGE", FlagValue::kUnchecked,
     "also expires entries unused for AGE (s/m/h/d\nsuffixes, e.g. 36h, 7d); usable alone "
     "or with\n--cache-gc"},
    {"cache-stats", "", FlagValue::kUnchecked, "prints cache + solve-service counters after the run"},
    {"serve", "PORT", FlagValue::kInt,
     "runs the scheduler daemon on PORT (0 = ephemeral;\nloopback only); SIGTERM drains "
     "gracefully: stop\naccepting, finish in-flight solves, report counters"},
    {"threads", "N", FlagValue::kCount, "daemon solver-pool width (default: hardware concurrency)"},
    {"max-pending", "N", FlagValue::kCount,
     "daemon admission cap: solves in flight across all\nclients before new ones are refused "
     "with queue-full"},
    {"rate-limit", "BURST", FlagValue::kNumber,
     "per-client token bucket: burst capacity in requests\n(0 = unlimited)"},
    {"rate-refill", "PER_SEC", FlagValue::kNumber,
     "tokens per second restored to each --rate-limit bucket"},
    {"idle-timeout", "SECONDS", FlagValue::kNumber,
     "closes connections idle for SECONDS (no completed\nframe, no flushed response; 0 = never)"},
    {"cache-gc-interval", "DUR", FlagValue::kUnchecked,
     "runs disk-cache GC inside the daemon every DUR\n(s/m/h/d suffixes) on its event-loop "
     "timer; the cap\nand TTL come from --cache-gc / --cache-gc-ttl; needs\n--cache-dir"},
    {"port-file", "FILE", FlagValue::kUnchecked, "daemon writes its bound port here once listening"},
    {"connect", "HOST:PORT", FlagValue::kUnchecked,
     "sends work to a daemon instead of solving in-process:\n--figure runs the sweep remotely "
     "(bit-identical table),\na problem file solves one instance, --serve-stats\nprints the "
     "daemon's live counters"},
    {"serve-stats", "", FlagValue::kUnchecked, "with --connect: fetch and print the daemon's stats"},
    {"client-id", "ID", FlagValue::kUnchecked, "client identity for the daemon's rate limiter"},
    {"connections", "N", FlagValue::kCount,
     "parallel connections --connect uses for a sweep\n(0 = the default, 4)"},
    {"help", "", FlagValue::kUnchecked, "prints this summary"},
};

/// Refuses a `--name` missing from `kFlags`, or a value its kind cannot
/// hold; prints the error naming the flag and returns false.
bool flags_valid(const mf::support::CliArgs& args) {
  for (const std::string& name : args.names()) {
    const Flag* flag = std::find_if(std::begin(kFlags), std::end(kFlags),
                                    [&](const Flag& row) { return name == row.name; });
    if (flag == std::end(kFlags)) {
      std::fprintf(stderr, "error: unknown flag --%s (see --help)\n", name.c_str());
      return false;
    }
    try {
      if (flag->kind == FlagValue::kInt) (void)args.get_int(name, 0);
      if (flag->kind == FlagValue::kNumber) (void)args.get_double(name, 0.0);
      if (flag->kind == FlagValue::kCount && args.get_int(name, 0) < 0) {
        std::fprintf(stderr, "error: --%s expects a count >= 0, got '%s'\n", name.c_str(),
                     args.get(name, "").c_str());
        return false;
      }
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return false;
    }
  }
  return true;
}

int usage(const char* program) {
  std::printf(
      "usage: %s <problem-file> [--method ID] [--refine] [--simulate N]\n"
      "          [--budget NODES] [--out FILE] [--seed S] [--cache off|read|rw]\n"
      "          [--cache-dir DIR] [--cache-stats]\n"
      "       %s --list | --list-scenarios\n"
      "       %s --demo [--tasks N --machines M --types P --seed S]\n"
      "       %s --figure NAME [--scenario ID] [--scale K] [--cache MODE]\n"
      "          [--cache-dir DIR] [--cache-stats]\n"
      "          [--repeat R] [--shard i/N [--out shard-file]]\n"
      "       %s --merge <shard-file>... [--out FILE]\n"
      "       %s --cache-gc SIZE [--cache-gc-ttl AGE] --cache-dir DIR\n"
      "       %s --serve PORT [--threads N]\n"
      "          [--max-pending N] [--rate-limit BURST] [--rate-refill PER_SEC]\n"
      "          [--idle-timeout SECONDS] [--cache-gc-interval DUR]\n"
      "          [--port-file FILE] [--cache-dir DIR]\n"
      "       %s --connect HOST:PORT (--figure NAME | <problem-file> | --serve-stats)\n"
      "          [--client-id ID] [--connections N]\n"
      "       %s --help\n"
      "flags:\n",
      program, program, program, program, program, program, program, program, program);
  for (const Flag& flag : kFlags) {
    std::string head = std::string("--") + flag.name;
    if (flag.arg[0] != '\0') head += std::string(" ") + flag.arg;
    std::istringstream help(std::string(flag.help) +
                            (flag.choices != nullptr ? "\n" + flag.choices() : ""));
    for (std::string line; std::getline(help, line); head.clear()) {
      std::printf("%-24s%s\n", head.c_str(), line.c_str());
    }
  }
  return 2;
}

int list_solvers() {
  const auto& registry = mf::solve::SolverRegistry::instance();
  std::printf("registered solvers (append \"+ls\" for local-search refinement):\n");
  for (const std::string& id : registry.ids()) {
    std::printf("  %-6s %s\n", id.c_str(), registry.resolve(id)->description().c_str());
  }
  return 0;
}

int list_scenarios() {
  std::printf("registered failure-model scenarios (use with --figure NAME --scenario ID):\n");
  for (const std::string& id : mf::exp::scenario_ids()) {
    std::printf("  %-13s %s\n", id.c_str(), mf::exp::scenario_description(id).c_str());
  }
  return 0;
}

mf::solve::CachePolicy parse_cache_flag(const mf::support::CliArgs& args) {
  // --cache-dir without an explicit --cache policy implies read-write: a
  // persistent store that nothing writes to or reads from would make the
  // flag silently inert. --connect implies it too: the cache lives in the
  // daemon, and requests stamped `off` would bypass it — repeats against a
  // warm daemon must cost zero solves unless the client opts out.
  const char* fallback = (args.has("cache-dir") || args.has("connect")) ? "rw" : "off";
  const std::string text = args.get("cache", fallback);
  const auto policy = mf::solve::cache_policy_from_string(text);
  if (!policy.has_value()) {
    std::fprintf(stderr, "error: unknown --cache mode '%s' (off, read, rw)\n", text.c_str());
    std::exit(2);
  }
  if (*policy == mf::solve::CachePolicy::kOff && args.has("cache-dir")) {
    std::fprintf(stderr,
                 "warning: --cache off makes --cache-dir inert (nothing is read or stored)\n");
  }
  return *policy;
}

/// The one spelling of the service counter line — CI and docs grep it
/// ("solved 0$"), so every mode must print it through this helper.
void print_service_line(const mf::solve::ServiceStats& delta) {
  std::printf(
      "service: submitted %llu, cache hits %llu, in-flight dedup %llu, rejected %llu "
      "queue-full / %llu rate-limited, solved %llu\n",
      static_cast<unsigned long long>(delta.submitted),
      static_cast<unsigned long long>(delta.cache_hits),
      static_cast<unsigned long long>(delta.dedup_joined),
      static_cast<unsigned long long>(delta.rejected_queue_full),
      static_cast<unsigned long long>(delta.rejected_rate_limited),
      static_cast<unsigned long long>(delta.solved));
}

/// Builds the cache a run solves against — the process-wide in-memory
/// cache, or with --cache-dir a memory cache over that persistent store —
/// and prints counter deltas for it and for the service the run solved
/// through. One scope spans one logical run, so `print_delta` reports what
/// THIS run did, not process history.
class CacheScope {
 public:
  /// Throws std::invalid_argument when --cache-dir names a path that is not
  /// (and cannot become) a directory; `open_cache_scope` reports it.
  explicit CacheScope(const mf::support::CliArgs& args) {
    const std::string dir = args.get("cache-dir", "");
    if (!dir.empty()) {
      disk_.emplace(dir);
      over_disk_.emplace(mf::solve::ResultCache::kDefaultCapacity, &*disk_);
    }
    cache_ = over_disk_.has_value() ? &*over_disk_ : &mf::solve::ResultCache::global();
    cache_before_ = cache_->stats();
  }

  [[nodiscard]] mf::solve::ResultCache* cache() noexcept { return cache_; }

  /// Re-anchors the deltas on the cache and on `service`, the run's one
  /// service (e.g. between --repeat rounds).
  void reset_baseline(const mf::solve::SolveService& service) {
    cache_before_ = cache_->stats();
    service_before_ = service.stats();
  }

  void print_delta(const mf::solve::SolveService& service_now) const {
    const mf::solve::CacheStats now = cache_->stats();
    const mf::solve::ServiceStats service = service_now.stats();
    std::printf(
        "cache [%s]: %llu hits / %llu misses (%.1f%% hit rate), %llu evictions, "
        "%zu resident",
        cache_->describe().c_str(),
        static_cast<unsigned long long>(now.hits - cache_before_.hits),
        static_cast<unsigned long long>(now.misses - cache_before_.misses),
        100.0 * delta_hit_rate(now),
        static_cast<unsigned long long>(now.evictions - cache_before_.evictions),
        now.size);
    // Byte totals only exist with a disk tier; keep the memory-only line
    // unchanged.
    if (now.bytes > 0) {
      std::printf(" (%llu bytes on disk)", static_cast<unsigned long long>(now.bytes));
    }
    std::printf("\n");
    mf::solve::ServiceStats delta;
    delta.submitted = service.submitted - service_before_.submitted;
    delta.cache_hits = service.cache_hits - service_before_.cache_hits;
    delta.dedup_joined = service.dedup_joined - service_before_.dedup_joined;
    delta.rejected_queue_full =
        service.rejected_queue_full - service_before_.rejected_queue_full;
    delta.rejected_rate_limited =
        service.rejected_rate_limited - service_before_.rejected_rate_limited;
    delta.solved = service.solved - service_before_.solved;
    print_service_line(delta);
  }

 private:
  [[nodiscard]] double delta_hit_rate(const mf::solve::CacheStats& now) const {
    mf::solve::CacheStats delta;
    delta.hits = now.hits - cache_before_.hits;
    delta.misses = now.misses - cache_before_.misses;
    return delta.hit_rate();
  }

  std::optional<mf::solve::DiskCache> disk_;
  std::optional<mf::solve::ResultCache> over_disk_;
  mf::solve::ResultCache* cache_ = nullptr;
  mf::solve::CacheStats cache_before_;
  mf::solve::ServiceStats service_before_;
};

/// Builds the run's cache scope into `scope`. A --cache-dir that is not
/// (and cannot become) a directory prints `error: ...` and returns false,
/// and the mode exits 1, as `--cache-gc` does.
bool open_cache_scope(std::optional<CacheScope>& scope, const mf::support::CliArgs& args) {
  try {
    scope.emplace(args);
    return true;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return false;
  }
}

using HostPort = std::pair<std::string, std::uint16_t>;

/// `--connect HOST:PORT`, or nullopt without the flag; exits 2 on a
/// malformed target.
std::optional<HostPort> connect_flag(const mf::support::CliArgs& args) {
  if (!args.has("connect")) return std::nullopt;
  std::optional<HostPort> target = mf::serve::parse_host_port(args.get("connect", ""));
  if (!target.has_value()) {
    std::fprintf(stderr, "error: --connect expects HOST:PORT\n");
    std::exit(2);
  }
  return target;
}

/// Cache counters print when the run used the cache or the user asked.
bool wants_cache_stats(const mf::support::CliArgs& args, mf::solve::CachePolicy policy) {
  return args.has("cache-stats") || policy != mf::solve::CachePolicy::kOff;
}

/// A sweep's table and chart: what every mode prints, and the one spelling
/// of a sweep's `--out` file. An unsharded sweep and a `--merge` of its
/// shards must write identical bytes (CI diffs both against
/// tests/golden_figures/), so both render through this helper.
std::string sweep_text(const mf::exp::SweepResult& result) {
  return result.to_table().to_string() + "\n" + result.to_chart() + "\n";
}

bool write_out(const std::string& text, const std::string& out) {
  std::ofstream file(out);
  file << text;
  file.flush();
  if (!file.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return false;
  }
  std::printf("table written to %s\n", out.c_str());
  return true;
}

/// Reads a positive integer flag, clamping zero/negative values to 1 (a
/// negative value cast to size_t would otherwise mean ~2^64 repeats).
std::size_t get_positive(const mf::support::CliArgs& args, const std::string& name) {
  return static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int(name, 1)));
}

void print_header(const mf::exp::SweepSpec& spec, mf::solve::CachePolicy cache) {
  std::printf("=== %s: %s ===\n", spec.name.c_str(), spec.description.c_str());
  std::printf("scenario: %s; failure model '%s'; sweep over %s; %zu trials/point; cache %s\n",
              spec.base.describe().c_str(), spec.scenario_id.c_str(),
              mf::exp::to_string(spec.variable).c_str(), spec.trials,
              mf::solve::to_string(cache).c_str());
}

/// Parses `--shard i/N`: two plain decimal numbers around one slash, with
/// no sign, blank or trailing text; nullopt on anything else.
std::optional<mf::exp::ShardSpec> parse_shard(std::string_view text) {
  const auto number = [](std::string_view digits) -> std::optional<std::size_t> {
    std::size_t value = 0;
    const char* const end = digits.data() + digits.size();
    const auto [stop, error] = std::from_chars(digits.data(), end, value);
    if (error != std::errc{} || stop != end) return std::nullopt;
    return value;
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const std::optional<std::size_t> index = number(text.substr(0, slash));
  const std::optional<std::size_t> count = number(text.substr(slash + 1));
  if (!index.has_value() || !count.has_value()) return std::nullopt;
  return mf::exp::ShardSpec{*index, *count};
}

int run_figure(const mf::support::CliArgs& args) {
  const std::string name = args.get("figure", "");
  const std::optional<Report> report = report_by_name(name);
  if (report.has_value() && args.has("shard")) return refuse_split_report(name, *report);
  // --scenario re-draws the figure's instances under another failure model;
  // all shards of one campaign must share the id (merge() enforces it).
  const std::string scenario = args.get("scenario", "");
  if (args.has("scenario") && std::ranges::count(mf::exp::scenario_ids(), scenario) == 0) {
    std::fprintf(stderr, "error: unknown scenario '%s' (%s)\n", scenario.c_str(),
                 scenario_names().c_str());
    return 2;
  }
  const std::size_t scale = get_positive(args, "scale");
  std::vector<mf::exp::SweepSpec> specs;
  for (const std::string& sweep : report.has_value() ? report->sweeps
                                                     : std::vector<std::string>{name}) {
    std::optional<mf::exp::SweepSpec> found = mf::exp::figure_spec_by_name(sweep);
    if (!found.has_value()) {
      std::fprintf(stderr, "error: unknown figure '%s' (%s)\n", name.c_str(),
                   figure_names().c_str());
      return 2;
    }
    mf::exp::SweepSpec& spec = specs.emplace_back(*std::move(found));
    if (scale > 1) spec = mf::exp::scaled_down(spec, scale);
    // --seed overrides the spec's fixed base seed for independent
    // replications; all shards of one campaign must then share the value.
    if (args.has("seed")) {
      spec.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    }
    if (args.has("scenario")) spec.scenario_id = scenario;
  }

  mf::exp::SweepOptions options;
  options.cache = parse_cache_flag(args);
  // Every flag value is checked before --cache-dir is created.
  const std::optional<HostPort> target = connect_flag(args);
  if (args.has("shard")) {
    const std::optional<mf::exp::ShardSpec> shard = parse_shard(args.get("shard", ""));
    if (!shard.has_value() || shard->count < 2 || shard->index >= shard->count) {
      std::fprintf(stderr, "error: --shard expects i/N with 0 <= i < N and N >= 2\n");
      return 2;
    }
    options.shard = *shard;
  }
  if (options.shard.is_sharded() && args.get_int("repeat", 1) != 1) {
    std::fprintf(stderr, "error: --repeat cannot be combined with --shard\n");
    return 2;
  }
  // A remote sweep turns each failed solve into a failed trial, so an
  // unreachable daemon would print a table of empty cells; ask it once
  // before any sweep runs.
  if (target.has_value()) {
    try {
      mf::serve::Client probe(target->first, target->second);
      if (!probe.ping()) {
        throw std::runtime_error("serve: " + args.get("connect", "") + " did not answer a ping");
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
  }

  std::optional<CacheScope> cache_scope;
  if (!open_cache_scope(cache_scope, args)) return 1;
  // One service for the whole run: every sweep (and every --repeat round)
  // solves through it, and --cache-stats prints its counters.
  mf::support::ThreadPool pool;
  mf::solve::SolveService service(&pool, cache_scope->cache());
  options.executor = &service;
  // --connect reroutes every solve of the sweep to a scheduler daemon; the
  // table is bit-identical either way (content-addressed seeds, canonical
  // wire round-trip), so remote is purely an execution choice.
  std::optional<mf::serve::RemoteExecutor> remote;
  if (target.has_value()) {
    mf::serve::RemoteExecutorOptions remote_options;
    remote_options.host = target->first;
    remote_options.port = target->second;
    remote_options.connections = static_cast<std::size_t>(args.get_int("connections", 0));
    remote_options.client_id = args.get("client-id", "mfsched");
    remote.emplace(std::move(remote_options));
    options.executor = &*remote;
  }

  if (options.shard.is_sharded()) {
    const mf::exp::SweepSpec& spec = specs.front();
    print_header(spec, options.cache);
    const mf::exp::SweepResult result = mf::exp::run_sweep(spec, options, &pool);
    std::string out = args.get("out", "");
    if (out.empty()) {
      out = spec.name + ".shard" + std::to_string(options.shard.index) + "-of-" +
            std::to_string(options.shard.count) + ".txt";
    }
    try {
      mf::exp::save_sweep_shard(result, out);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
    std::size_t outcomes = 0;
    for (const mf::exp::PointResult& point : result.points) {
      outcomes += point.trial_outcomes.size();
    }
    std::printf("shard %zu/%zu: %zu trial outcomes over %zu points written to %s\n",
                options.shard.index, options.shard.count, outcomes, result.points.size(),
                out.c_str());
    if (wants_cache_stats(args, options.cache) && !remote.has_value()) {
      cache_scope->print_delta(service);
    }
    return 0;
  }

  const std::size_t repeat = get_positive(args, "repeat");
  const std::string out = args.get("out", "");
  if (report.has_value()) std::printf("=== %s: %s ===\n", name.c_str(), report->title);
  for (std::size_t round = 0; round < repeat; ++round) {
    if (repeat > 1) std::printf("--- run %zu of %zu ---\n", round + 1, repeat);
    cache_scope->reset_baseline(service);
    std::vector<mf::exp::SweepResult> results;
    for (const mf::exp::SweepSpec& spec : specs) {
      print_header(spec, options.cache);
      results.push_back(mf::exp::run_sweep(spec, options, &pool));
      std::printf("%s", sweep_text(results.back()).c_str());
    }
    // What --out writes: the sweep's table and chart, or the report's lines.
    const std::string text =
        report.has_value() ? report->render(results) : sweep_text(results.front());
    if (report.has_value()) std::printf("%s", text.c_str());
    // Remote runs execute in the daemon, where the cache and its counters
    // live; the local scope would read all-zero. --serve-stats reports them.
    if (wants_cache_stats(args, options.cache) && !remote.has_value()) {
      cache_scope->print_delta(service);
    }
    if (!out.empty() && !write_out(text, out)) return 1;
  }
  return 0;
}

/// Parses "4096", "512K", "64M", "2G" into bytes; nullopt on anything else
/// — including negative values (strtoull would silently wrap them) and
/// values whose suffix multiplication overflows 64 bits (a wrapped cap
/// would make gc delete nearly everything).
std::optional<std::uint64_t> parse_size_bytes(const std::string& text) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || errno == ERANGE) return std::nullopt;
  const std::string suffix(end);
  std::uint64_t multiplier = 1;
  if (suffix == "K" || suffix == "k") {
    multiplier = 1024ull;
  } else if (suffix == "M" || suffix == "m") {
    multiplier = 1024ull * 1024;
  } else if (suffix == "G" || suffix == "g") {
    multiplier = 1024ull * 1024 * 1024;
  } else if (!suffix.empty()) {
    return std::nullopt;
  }
  if (value > std::numeric_limits<std::uint64_t>::max() / multiplier) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value) * multiplier;
}

/// Parses "90s", "30m", "36h", "7d" (bare digits = seconds) into a
/// duration; nullopt on anything else, including multiplications that
/// overflow 64 bits. DiskCache::gc expires nothing for an age beyond its
/// file clock's range.
std::optional<std::chrono::seconds> parse_age_seconds(const std::string& text) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || errno == ERANGE) return std::nullopt;
  const std::string suffix(end);
  std::uint64_t multiplier = 1;
  if (suffix == "m") {
    multiplier = 60;
  } else if (suffix == "h") {
    multiplier = 3600;
  } else if (suffix == "d") {
    multiplier = 86400;
  } else if (!suffix.empty() && suffix != "s") {
    return std::nullopt;
  }
  if (value > std::numeric_limits<std::uint64_t>::max() / multiplier) {
    return std::nullopt;
  }
  return std::chrono::seconds(static_cast<std::int64_t>(value * multiplier));
}

/// `--cache-gc SIZE` in bytes, or `fallback` without the flag; exits 2 on
/// a malformed size.
std::uint64_t gc_cap_flag(const mf::support::CliArgs& args, std::uint64_t fallback) {
  if (!args.has("cache-gc")) return fallback;
  const std::optional<std::uint64_t> cap = parse_size_bytes(args.get("cache-gc", ""));
  if (!cap.has_value()) {
    std::fprintf(stderr, "error: --cache-gc expects a size like 64M (K/M/G suffixes)\n");
    std::exit(2);
  }
  return *cap;
}

/// `--cache-gc-ttl AGE`, or zero (no expiry) without the flag; exits 2 on
/// a malformed age.
std::chrono::seconds gc_ttl_flag(const mf::support::CliArgs& args) {
  if (!args.has("cache-gc-ttl")) return std::chrono::seconds::zero();
  const std::optional<std::chrono::seconds> age =
      parse_age_seconds(args.get("cache-gc-ttl", ""));
  if (!age.has_value()) {
    std::fprintf(stderr, "error: --cache-gc-ttl expects an age like 36h or 7d (s/m/h/d)\n");
    std::exit(2);
  }
  return *age;
}

/// `--cache-gc SIZE --cache-dir DIR`: shrink the persistent store to the
/// cap, evicting least-recently-used entries (LRU by mtime; lookups
/// refresh it), so long campaigns can share one directory indefinitely.
/// `--cache-gc-ttl AGE` adds (or stands alone as) the TTL sweep: entries
/// unused for longer than AGE go regardless of the cap.
int run_cache_gc(const mf::support::CliArgs& args) {
  const std::string dir = args.get("cache-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "error: --cache-gc needs --cache-dir DIR\n");
    return 2;
  }
  // --cache-gc-ttl alone means "expire by age, cap nothing".
  const std::uint64_t cap_bytes = gc_cap_flag(args, std::numeric_limits<std::uint64_t>::max());
  const std::chrono::seconds max_age = gc_ttl_flag(args);
  try {
    mf::solve::DiskCache cache(dir);
    const mf::solve::DiskGcReport report = cache.gc(cap_bytes, max_age);
    std::printf(
        "cache-gc [%s]: cap %llu bytes; kept %zu entries (%llu bytes), removed %zu "
        "entries (%llu bytes, %zu expired by ttl), swept %zu stale temp files\n",
        cache.describe().c_str(), static_cast<unsigned long long>(cap_bytes),
        report.entries_kept, static_cast<unsigned long long>(report.bytes_kept),
        report.entries_removed, static_cast<unsigned long long>(report.bytes_removed),
        report.entries_expired, report.stale_temps_removed);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

/// Self-pipe for the daemon's graceful shutdown: a signal handler may only
/// do async-signal-safe work, so it writes one byte here and the serve
/// loop — blocked reading the other end — runs the actual drain.
int g_drain_pipe[2] = {-1, -1};

extern "C" void serve_signal_handler(int) {
  const char byte = 1;
  [[maybe_unused]] const auto ignored = ::write(g_drain_pipe[1], &byte, 1);
}

/// `--serve PORT`: run the scheduler daemon until SIGTERM/SIGINT, then
/// drain — stop accepting, refuse new solves, finish and flush what is in
/// flight — and report the final counters.
int run_serve(const mf::support::CliArgs& args) {
  const std::int64_t port = args.get_int("serve", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "error: --serve expects a port in [0, 65535] (0 = ephemeral)\n");
    return 2;
  }
  mf::serve::DaemonOptions options;
  options.port = static_cast<std::uint16_t>(port);
  options.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  options.max_pending = static_cast<std::size_t>(args.get_int("max-pending", 256));
  options.rate_capacity = args.get_double("rate-limit", 0.0);
  options.rate_refill_per_sec = args.get_double("rate-refill", 1.0);
  options.idle_timeout_seconds = args.get_double("idle-timeout", 0.0);

  if (args.has("cache-gc-interval")) {
    const std::optional<std::chrono::seconds> interval =
        parse_age_seconds(args.get("cache-gc-interval", ""));
    if (!interval.has_value() || interval->count() <= 0) {
      std::fprintf(stderr,
                   "error: --cache-gc-interval expects a positive duration like 30s or "
                   "15m (s/m/h/d)\n");
      return 2;
    }
    if (args.get("cache-dir", "").empty()) {
      std::fprintf(stderr, "error: --cache-gc-interval needs --cache-dir DIR\n");
      return 2;
    }
    options.cache_gc_interval_seconds = static_cast<double>(interval->count());
    options.gc_max_bytes = gc_cap_flag(args, options.gc_max_bytes);
    options.gc_max_age_seconds = static_cast<std::uint64_t>(gc_ttl_flag(args).count());
  }
  // Built once every flag value has been checked: a refused flag leaves no
  // --cache-dir behind.
  std::optional<CacheScope> cache_scope;
  if (!open_cache_scope(cache_scope, args)) return 1;
  options.cache = cache_scope->cache();

  mf::serve::Daemon daemon(options);
  try {
    daemon.start();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::printf("serve: listening on 127.0.0.1:%u (max pending %zu, rate limit %s)\n",
              static_cast<unsigned>(daemon.port()), options.max_pending,
              options.rate_capacity > 0.0
                  ? (std::to_string(options.rate_capacity) + " burst").c_str()
                  : "off");
  std::fflush(stdout);

  const std::string port_file = args.get("port-file", "");
  if (!port_file.empty()) {
    // Written only once the socket listens: a supervisor polling for this
    // file never reads a port that isn't accepting yet.
    std::ofstream out(port_file);
    out << daemon.port() << "\n";
  }

  if (::pipe(g_drain_pipe) != 0) {
    std::fprintf(stderr, "error: pipe() failed\n");
    return 1;
  }
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);

  char byte = 0;
  while (::read(g_drain_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("serve: draining (finishing in-flight solves)\n");
  std::fflush(stdout);
  daemon.drain();
  daemon.wait();

  const mf::serve::DaemonStatsSnapshot stats = daemon.stats_snapshot();
  std::printf("serve: drained; %llu connections served, %llu requests completed, "
              "latency p50 %.3f ms / p99 %.3f ms\n",
              static_cast<unsigned long long>(stats.connections_total),
              static_cast<unsigned long long>(stats.service.completed),
              stats.latency_p50_ms, stats.latency_p99_ms);
  std::printf("serve: loop %llu wakeups, %llu timers fired, %llu idle closes, "
              "%llu bytes backpressured\n",
              static_cast<unsigned long long>(stats.loop_wakeups),
              static_cast<unsigned long long>(stats.loop_timers_fired),
              static_cast<unsigned long long>(stats.idle_closes),
              static_cast<unsigned long long>(stats.backpressure_bytes));
  if (options.cache_gc_interval_seconds > 0.0) {
    std::printf("serve: gc %llu runs, %llu entries removed (%llu bytes)\n",
                static_cast<unsigned long long>(stats.gc_runs),
                static_cast<unsigned long long>(stats.gc_entries_removed),
                static_cast<unsigned long long>(stats.gc_bytes_removed));
  }
  cache_scope->print_delta(daemon.service());
  return 0;
}

/// `--connect HOST:PORT --serve-stats`: print a live daemon's counters.
int run_remote_stats(const mf::support::CliArgs& args) {
  const auto target = mf::serve::parse_host_port(args.get("connect", ""));
  if (!target.has_value()) {
    std::fprintf(stderr, "error: --serve-stats needs --connect HOST:PORT\n");
    return 2;
  }
  try {
    mf::serve::Client client(target->first, target->second);
    const std::optional<mf::serve::DaemonStatsSnapshot> stats = client.stats();
    if (!stats.has_value()) {
      std::fprintf(stderr, "error: daemon returned an unparsable stats response\n");
      return 1;
    }
    std::printf("daemon service: submitted %llu, completed %llu, solved %llu, cache hits "
                "%llu, in-flight dedup %llu, rejected %llu queue-full / %llu rate-limited\n",
                static_cast<unsigned long long>(stats->service.submitted),
                static_cast<unsigned long long>(stats->service.completed),
                static_cast<unsigned long long>(stats->service.solved),
                static_cast<unsigned long long>(stats->service.cache_hits),
                static_cast<unsigned long long>(stats->service.dedup_joined),
                static_cast<unsigned long long>(stats->service.rejected_queue_full),
                static_cast<unsigned long long>(stats->service.rejected_rate_limited));
    std::printf("daemon cache: %llu hits / %llu misses, %llu insertions, %zu resident "
                "(%llu bytes)\n",
                static_cast<unsigned long long>(stats->cache.hits),
                static_cast<unsigned long long>(stats->cache.misses),
                static_cast<unsigned long long>(stats->cache.insertions), stats->cache.size,
                static_cast<unsigned long long>(stats->cache.bytes));
    std::printf("daemon load: %llu active connections (%llu total), %llu pending, "
                "pool %llu queued / %llu running\n",
                static_cast<unsigned long long>(stats->connections_active),
                static_cast<unsigned long long>(stats->connections_total),
                static_cast<unsigned long long>(stats->pending),
                static_cast<unsigned long long>(stats->pool_queue_depth),
                static_cast<unsigned long long>(stats->pool_in_flight));
    std::printf("daemon loop: %llu wakeups, %llu timers fired, %llu idle closes, "
                "%llu bytes backpressured; gc %llu runs (%llu entries, %llu bytes "
                "removed)\n",
                static_cast<unsigned long long>(stats->loop_wakeups),
                static_cast<unsigned long long>(stats->loop_timers_fired),
                static_cast<unsigned long long>(stats->idle_closes),
                static_cast<unsigned long long>(stats->backpressure_bytes),
                static_cast<unsigned long long>(stats->gc_runs),
                static_cast<unsigned long long>(stats->gc_entries_removed),
                static_cast<unsigned long long>(stats->gc_bytes_removed));
    std::printf("daemon latency: %llu samples, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
                static_cast<unsigned long long>(stats->latency_count),
                stats->latency_p50_ms, stats->latency_p90_ms, stats->latency_p99_ms);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

int run_merge(const mf::support::CliArgs& args) {
  // The flag parser binds the first file to --merge itself ("--name value"
  // form); the rest arrive as positionals.
  std::vector<std::string> paths;
  const std::string bound = args.get("merge", "");
  if (!bound.empty() && bound != "true") paths.push_back(bound);
  paths.insert(paths.end(), args.positional().begin(), args.positional().end());
  if (paths.empty()) {
    std::fprintf(stderr, "error: --merge needs one shard file per shard\n");
    return 2;
  }
  std::vector<mf::exp::SweepResult> shards;
  shards.reserve(paths.size());
  try {
    for (const std::string& path : paths) {
      shards.push_back(mf::exp::load_sweep_shard(path));
    }
    const mf::exp::SweepResult result = mf::exp::merge(std::move(shards));
    std::printf("=== %s: %s (merged from %zu shards) ===\n", result.spec.name.c_str(),
                result.spec.description.c_str(), paths.size());
    // The same text, and with --out the same file, as the unsharded sweep.
    const std::string text = sweep_text(result);
    std::printf("%s", text.c_str());
    const std::string out = args.get("out", "");
    if (!out.empty() && !write_out(text, out)) return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const mf::support::CliArgs args(argc, argv);
  if (!flags_valid(args)) return 2;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  if (args.has("help")) {
    (void)usage(args.program().c_str());
    return 0;
  }
  if (args.has("list")) return list_solvers();
  if (args.has("list-scenarios")) return list_scenarios();
  // --serve wins over --cache-gc/--cache-gc-ttl: combined with --serve and
  // --cache-gc-interval they become the in-daemon GC policy (cap + TTL)
  // instead of a one-shot standalone pass.
  if (args.has("serve")) return run_serve(args);
  if (args.has("cache-gc") || args.has("cache-gc-ttl")) return run_cache_gc(args);
  if (args.has("serve-stats")) return run_remote_stats(args);
  if (args.has("figure")) return run_figure(args);
  if (args.has("merge")) return run_merge(args);

  if (args.has("demo")) {
    mf::exp::Scenario scenario;
    scenario.tasks = static_cast<std::size_t>(args.get_int("tasks", 15));
    scenario.machines = static_cast<std::size_t>(args.get_int("machines", 6));
    scenario.types = static_cast<std::size_t>(args.get_int("types", 3));
    const mf::core::Problem problem = mf::exp::generate(scenario, seed);
    mf::core::save_problem(problem, "demo_problem.txt");
    std::printf("wrote demo_problem.txt (%s)\n", scenario.describe().c_str());
    return 0;
  }

  if (args.positional().empty()) return usage(args.program().c_str());

  mf::core::Problem problem = [&] {
    try {
      return mf::core::load_problem(args.positional()[0]);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      std::exit(1);
    }
  }();
  std::printf("loaded: %s on %s\n", problem.app.describe().c_str(),
              problem.platform.describe().c_str());

  std::string method = args.get("method", "H4w");
  if (method == "exact") method = "bnb";  // pre-registry spelling

  mf::solve::SolveParams params;
  params.seed = seed;
  params.local_search = args.has("refine");
  params.cache = parse_cache_flag(args);
  if (args.has("budget")) {
    params.max_nodes = static_cast<std::uint64_t>(args.get_int("budget", 0));
  }

  // The single-solve path rides the same async service the sweeps and the
  // scheduler daemon use: submit one request, wait on its future. With
  // --connect, the identical request goes to a daemon instead — admission
  // rejections (queue-full, rate-limited) surface as errors, not retries.
  const std::optional<HostPort> target = connect_flag(args);
  std::optional<CacheScope> cache_scope;
  if (!open_cache_scope(cache_scope, args)) return 1;
  mf::solve::SolveService service(nullptr, cache_scope->cache());
  const mf::solve::SolveResult result = [&] {
    mf::solve::SolveRequest request;
    request.problem = std::make_shared<const mf::core::Problem>(problem);
    request.solver_id = method;
    request.params = params;
    if (target.has_value()) {
      try {
        mf::serve::Client client(target->first, target->second);
        mf::serve::WireRequest wire;
        wire.client_id = args.get("client-id", "mfsched");
        wire.request = std::move(request);
        wire.request.derive_stream_seed = false;
        const mf::serve::Client::Outcome outcome = client.solve(wire);
        if (!outcome.ok) {
          std::fprintf(stderr, "error: daemon refused solve: %s: %s\n",
                       outcome.error_code.c_str(), outcome.detail.c_str());
          std::exit(1);
        }
        return outcome.result;
      } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        std::exit(1);
      }
    }
    try {
      return service.submit(std::move(request)).get();
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      std::exit(usage(args.program().c_str()));
    }
  }();
  // A remote solve ran in the daemon (--serve-stats reports it); the local
  // service never ran, so its all-zero counters would mislead.
  if (args.has("cache-stats") && !target.has_value()) cache_scope->print_delta(service);

  const auto& diag = result.diagnostics;
  if (!result.has_mapping()) {
    std::fprintf(stderr, "error: %s produced no mapping (%s)%s%s\n", diag.solver_id.c_str(),
                 mf::solve::to_string(result.status).c_str(), diag.note.empty() ? "" : ": ",
                 diag.note.c_str());
    return 1;
  }
  if (result.status == mf::solve::Status::kBudgetExhausted) {
    std::fprintf(stderr, "warning: node budget exhausted; best-found mapping used\n");
  }

  std::printf("%s period: %.1f ms/product (throughput %.3f/s) [%s, %.1f ms solve",
              diag.solver_id.c_str(), result.period, 1000.0 / result.period,
              mf::solve::to_string(result.status).c_str(), diag.wall_time_ms);
  if (diag.nodes_explored > 0) {
    std::printf(", %llu nodes", static_cast<unsigned long long>(diag.nodes_explored));
  }
  if (diag.cache_hit) std::printf(", cache hit");
  std::printf("]\n");
  if (diag.refined) {
    std::printf("refinement: -%.1f ms/product over %zu moves (%s)\n",
                diag.refiner_improvement_ms, diag.refiner_moves,
                diag.refiner_converged ? "local optimum" : "pass budget");
  }

  const auto simulate = static_cast<std::uint64_t>(args.get_int("simulate", 0));
  if (simulate > 0) {
    mf::sim::SimulationConfig config;
    config.seed = seed;
    config.target_outputs = simulate;
    config.warmup_outputs = simulate / 10;
    const auto report = mf::sim::Simulator(problem, *result.mapping).run(config);
    std::printf("simulated %llu products: measured period %.1f ms (analytic %.1f)\n",
                static_cast<unsigned long long>(report.finished_products),
                report.measured_period, result.period);
  }

  const std::string out = args.get("out", "");
  if (!out.empty()) {
    mf::core::save_mapping(*result.mapping, out);
    std::printf("mapping written to %s\n", out.c_str());
  } else {
    std::printf("mapping: %s\n", result.mapping->describe(problem.app).c_str());
  }
  return 0;
}
