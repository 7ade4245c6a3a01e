// Plain-text serialization of problem instances and mappings.
//
// Calibration campaigns on a real micro-factory produce (w, f) tables that
// need to travel between tools; this module defines a small line-oriented
// format for that purpose. It is deliberately trivial to parse from any
// language:
//
//   microfactory-problem v1
//   n <tasks> m <machines> p <types>
//   types <t_0> ... <t_{n-1}>
//   successors <s_0> ... <s_{n-1}>      # '-' marks a sink
//   w <row for task 0: m values> ...    # one line per task, ms
//   f <row for task 0: m values> ...    # one line per task, rates
//
//   microfactory-mapping v1
//   a <a_0> ... <a_{n-1}>               # machine index per task
//
// Reading validates everything the in-memory constructors validate, so a
// loaded problem is exactly as trustworthy as a built one.
//
// Two contracts pin the codec (docs/performance.md, "Problem text codec"):
//   * Same bytes: integers are plain decimal and doubles are printf's
//     "%.17g", which reads back to the same bits (ProblemIo's
//     WriterMatchesPrintfReference checks the writer against snprintf).
//   * Same refusals: the reader accepts exactly what the istringstream/stod
//     reader it replaced accepted, with the same values and the same error
//     text (tests/golden_problem_text.inc). Lines split on '\n'; a line that
//     is blank in " \t\r", or whose first such non-blank byte is '#', is
//     skipped but counted; tokens split on the six C-locale isspace bytes,
//     and a token that starts with '#' ends its line. A number is whatever
//     std::stod consumes whole ('+1', '0x1p7', 'nan' included; underflow
//     and overflow refused); an index is such a number that is a whole
//     value below 2^64. std::from_chars only decides, exactly as stod
//     would, the tokens it consumes whole with a magnitude in
//     [2^-1000, 2^1000], and indexes of at most 15 digits.
#pragma once

#include <string>
#include <string_view>

#include "core/mapping.hpp"
#include "core/platform.hpp"

namespace mf::core {

/// Serializes a problem instance to the v1 text format.
[[nodiscard]] std::string to_text(const Problem& problem);
/// Appends `to_text(problem)` to `out`, for a writer that embeds it.
void append_text(std::string& out, const Problem& problem);
/// Serializes a mapping to the v1 text format.
[[nodiscard]] std::string to_text(const Mapping& mapping);

/// Parses a problem instance; throws std::invalid_argument with a
/// line-specific message on malformed input.
[[nodiscard]] Problem problem_from_text(std::string_view text);
/// Parses a mapping (its length is validated against the problem by the
/// first use, not by the parser).
[[nodiscard]] Mapping mapping_from_text(std::string_view text);

/// File helpers (throw std::invalid_argument on I/O failure).
void save_problem(const Problem& problem, const std::string& path);
[[nodiscard]] Problem load_problem(const std::string& path);
void save_mapping(const Mapping& mapping, const std::string& path);
[[nodiscard]] Mapping load_mapping(const std::string& path);

}  // namespace mf::core
