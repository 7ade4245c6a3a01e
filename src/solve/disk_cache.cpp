#include "solve/disk_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "support/check.hpp"
#include "support/record.hpp"

namespace mf::solve {

namespace {

// Bumping this invalidates every existing cache directory: old-format
// entries parse as misses and are overwritten. Bump on ANY change to the
// entry layout or to what a stored field means.
constexpr const char* kEntryHeader = "mf-cache-entry v1";

Status read_status(support::RecordReader& in) {
  const std::string_view token = in.word();
  for (const Status status : {Status::kOptimal, Status::kFeasible, Status::kInfeasible,
                              Status::kBudgetExhausted, Status::kError}) {
    if (token == to_string(status)) return status;
  }
  in.fail("unknown status '" + std::string(token) + "'");
}

}  // namespace

std::string entry_to_text(const CacheKey& key, const SolveResult& result) {
  using support::hex64;
  using support::hexfloat;
  using support::one_line;
  std::ostringstream out;
  out << kEntryHeader << "\n";
  out << "problem " << hex64(key.problem.hi) << ' ' << hex64(key.problem.lo) << "\n";
  out << "solver " << one_line(key.solver_id) << "\n";
  out << "scenario " << one_line(key.scenario) << "\n";
  out << "seed " << key.seed << "\n";
  out << "budget " << (key.has_max_nodes ? 1 : 0) << ' ' << key.max_nodes << "\n";
  out << "limit " << key.time_limit_ms_bits << "\n";
  out << "refine " << key.refine_max_passes << ' ' << (key.refine_allow_swaps ? 1 : 0)
      << ' ' << (key.refine_first_improvement ? 1 : 0) << ' '
      << key.refine_min_relative_gain_bits << "\n";
  out << "status " << to_string(result.status) << "\n";
  out << "period " << hexfloat(result.period) << "\n";
  if (result.mapping.has_value()) {
    const auto& assignment = result.mapping->assignment();
    out << "mapping " << assignment.size();
    for (const core::MachineIndex machine : assignment) out << ' ' << machine;
    out << "\n";
  } else {
    out << "mapping -\n";
  }
  const auto& diag = result.diagnostics;
  out << "diag-solver " << one_line(diag.solver_id) << "\n";
  out << "nodes " << diag.nodes_explored << "\n";
  out << "wall " << hexfloat(diag.wall_time_ms) << "\n";
  out << "refinement " << (diag.refined ? 1 : 0) << ' '
      << hexfloat(diag.refiner_improvement_ms) << ' ' << diag.refiner_moves << ' '
      << (diag.refiner_converged ? 1 : 0) << "\n";
  out << "diag-scenario " << one_line(diag.scenario) << "\n";
  out << "note " << one_line(diag.note) << "\n";
  out << "end\n";
  return out.str();
}

std::optional<std::pair<CacheKey, SolveResult>> entry_from_text(const std::string& text) {
  try {
    support::RecordReader in(text);
    // The version is matched exactly: a bumped writer's "v2" fails here and
    // the stale entry is simply re-solved and overwritten.
    in.header(kEntryHeader);

    CacheKey key;
    in.line("problem");
    key.problem.hi = in.hex64();
    key.problem.lo = in.hex64();
    key.solver_id = in.line("solver").rest();
    if (key.solver_id.empty()) in.fail("empty solver id");
    key.scenario = in.line("scenario").rest();
    key.seed = in.line("seed").u64();
    in.line("budget");
    key.has_max_nodes = in.flag();
    key.max_nodes = in.u64();
    key.time_limit_ms_bits = in.line("limit").u64();
    in.line("refine");
    key.refine_max_passes = in.u64();
    key.refine_allow_swaps = in.flag();
    key.refine_first_improvement = in.flag();
    key.refine_min_relative_gain_bits = in.u64();

    SolveResult result;
    result.status = read_status(in.line("status"));
    result.period = in.line("period").real();
    const std::string_view count = in.line("mapping").word();
    if (count != "-") {
      std::vector<core::MachineIndex> assignment;
      while (!in.line_done()) assignment.push_back(in.u64());
      if (support::parse_u64(count) != assignment.size()) {
        in.fail("mapping lists " + std::to_string(assignment.size()) +
                " machines, declares '" + std::string(count) + "'");
      }
      result.mapping = core::Mapping(std::move(assignment));
    }
    auto& diag = result.diagnostics;
    diag.solver_id = in.line("diag-solver").rest();
    diag.nodes_explored = in.line("nodes").u64();
    diag.wall_time_ms = in.line("wall").real();
    in.line("refinement");
    diag.refined = in.flag();
    diag.refiner_improvement_ms = in.real();
    diag.refiner_moves = in.u64();
    diag.refiner_converged = in.flag();
    diag.scenario = in.line("diag-scenario").rest();
    diag.note = in.line("note").rest();
    // The trailing sentinel proves the file was written to completion; a
    // truncated entry (crash or torn copy) fails here.
    in.finish();
    return std::make_pair(std::move(key), std::move(result));
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

DiskCache::DiskCache(std::filesystem::path directory) : dir_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  MF_REQUIRE(!ec && std::filesystem::is_directory(dir_),
             "cache directory '" + dir_.string() + "' cannot be created");
}

std::string DiskCache::entry_filename(const CacheKey& key) {
  return support::hex64(key.hash_hi) + support::hex64(key.hash) + ".mfc";
}

std::optional<SolveResult> DiskCache::lookup(const CacheKey& key) {
  const std::filesystem::path path = dir_ / entry_filename(key);
  std::ifstream in(path);
  if (in.good()) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::optional<std::pair<CacheKey, SolveResult>> entry = entry_from_text(buffer.str());
    // The stored key must match field-by-field: a filename collision or an
    // entry misfiled by hand is a miss, never a wrong result.
    if (entry.has_value() && entry->first == key) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      // Refresh the mtime so gc's LRU order tracks use, not just writes; a
      // failure (entry evicted between read and touch) costs nothing.
      std::error_code ec;
      std::filesystem::last_write_time(path, std::filesystem::file_time_type::clock::now(),
                                       ec);
      return std::move(entry->second);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void DiskCache::insert(const CacheKey& key, const SolveResult& result) {
  const std::filesystem::path final_path = dir_ / entry_filename(key);
  // Unique per (process, insert): two pool threads — or two shard processes
  // sharing the directory — racing on one key each write their own temp
  // file, and the atomic rename makes the last one win whole.
  const std::filesystem::path temp_path =
      dir_ / (entry_filename(key) + ".tmp-" + std::to_string(::getpid()) + "-" +
              std::to_string(temp_serial_.fetch_add(1, std::memory_order_relaxed)));
  {
    std::ofstream out(temp_path);
    if (!out.good()) return;
    out << entry_to_text(key, result);
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(temp_path, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp_path, final_path, ec);
  if (ec) {
    std::filesystem::remove(temp_path, ec);
    return;
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

CacheStats DiskCache::stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().extension() == ".mfc") {
      ++stats.size;
      std::error_code size_ec;
      const std::uintmax_t bytes = std::filesystem::file_size(it->path(), size_ec);
      if (!size_ec) stats.bytes += static_cast<std::uint64_t>(bytes);
    }
  }
  return stats;
}

DiskGcReport DiskCache::gc(std::uint64_t max_bytes, std::chrono::seconds max_age) {
  struct Entry {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    std::uint64_t bytes = 0;
  };
  // A temp file younger than this belongs to a writer that may still be
  // alive; older ones are crash leftovers (writes take milliseconds).
  constexpr auto kStaleTempAge = std::chrono::hours(1);

  DiskGcReport report;
  std::vector<Entry> entries;
  const auto now = std::filesystem::file_time_type::clock::now();
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::filesystem::path& path = it->path();
    std::error_code stat_ec;
    if (path.extension() == ".mfc") {
      Entry entry;
      entry.path = path;
      entry.mtime = std::filesystem::last_write_time(path, stat_ec);
      if (stat_ec) continue;  // vanished mid-scan (concurrent gc/clear)
      entry.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(path, stat_ec));
      if (stat_ec) continue;
      entries.push_back(std::move(entry));
    } else if (path.filename().string().find(".mfc.tmp-") != std::string::npos) {
      const auto mtime = std::filesystem::last_write_time(path, stat_ec);
      if (!stat_ec && now - mtime > kStaleTempAge) {
        if (std::filesystem::remove(path, stat_ec) && !stat_ec) {
          ++report.stale_temps_removed;
        }
      }
    }
  }

  report.entries_before = entries.size();
  for (const Entry& entry : entries) report.bytes_before += entry.bytes;

  // TTL sweep first: an entry nobody used for `max_age` is dead weight no
  // matter how much room the byte cap leaves. mtime tracks last *use*
  // (lookups refresh it), so a hot entry never expires under a TTL longer
  // than its access interval. Runs before the cap so expired bytes don't
  // crowd live entries out of the recency prefix below. An age the file
  // clock cannot represent (about 292 years) expires nothing; comparing it
  // against a file-time difference would overflow the conversion.
  const auto clock_range = std::chrono::duration_cast<std::chrono::seconds>(
      std::filesystem::file_time_type::duration::max());
  if (max_age > std::chrono::seconds::zero() && max_age < clock_range) {
    std::vector<Entry> live;
    live.reserve(entries.size());
    for (Entry& entry : entries) {
      if (now - entry.mtime <= max_age) {
        live.push_back(std::move(entry));
        continue;
      }
      std::error_code remove_ec;
      std::filesystem::remove(entry.path, remove_ec);
      std::error_code exists_ec;
      if (remove_ec && std::filesystem::exists(entry.path, exists_ec)) {
        // Undeletable (permissions on a shared dir): still resident, so it
        // must keep competing for the byte cap like any live entry.
        live.push_back(std::move(entry));
        continue;
      }
      ++report.entries_removed;
      ++report.entries_expired;
      report.bytes_removed += entry.bytes;
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    entries = std::move(live);
  }

  // True LRU: survivors are a recency *prefix*. Walking newest-first, the
  // first entry that overflows the cap marks the cutoff — it and everything
  // older is evicted (a skip-and-keep-older policy would instead drop the
  // hottest entry while stale ones survive).
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime > b.mtime; });
  bool evicting = false;
  for (const Entry& entry : entries) {
    if (!evicting && report.bytes_kept + entry.bytes <= max_bytes) {
      ++report.entries_kept;
      report.bytes_kept += entry.bytes;
      continue;
    }
    evicting = true;
    std::error_code remove_ec;
    std::filesystem::remove(entry.path, remove_ec);
    std::error_code exists_ec;
    if (remove_ec && std::filesystem::exists(entry.path, exists_ec)) {
      // Could not delete (permissions on a shared dir, say): the entry is
      // still resident, and the report must not claim its space was freed.
      ++report.entries_kept;
      report.bytes_kept += entry.bytes;
      continue;
    }
    // Removed — or concurrently vanished, which reached the same end state.
    ++report.entries_removed;
    report.bytes_removed += entry.bytes;
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return report;
}

void DiskCache::clear() {
  std::error_code ec;
  std::vector<std::filesystem::path> doomed;
  for (std::filesystem::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    // Entries plus any temp file a crashed writer left behind.
    if (it->path().extension() == ".mfc" || name.find(".mfc.tmp-") != std::string::npos) {
      doomed.push_back(it->path());
    }
  }
  for (const std::filesystem::path& path : doomed) {
    std::filesystem::remove(path, ec);
  }
}

std::string DiskCache::describe() const { return "disk(" + dir_.string() + ")"; }

}  // namespace mf::solve
