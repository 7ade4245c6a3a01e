// The one text codec for records that leave a process: shard files
// (exp/sweep_io.hpp), disk-cache entries, which are also the daemon's solve
// responses (solve/disk_cache.hpp), and the daemon's request and stats
// bodies (serve/protocol.hpp). A record is a header line, keyword lines of
// space-separated fields, and an `end` line:
//
//   mf-serve-stats v1
//   submitted 101
//   latency-p50 0x1.5c28f5c28f5c3p-1
//   end
//
// Doubles travel as C99 hexfloats (printf %a), which strtod reads back to
// the same IEEE-754 bits, so a result that crosses a process boundary is
// bit-identical to one that never left.
//
// `RecordReader` applies one set of rules to every record, so every format
// rejects the same malformations:
//   * every line, the last one included, ends in '\n';
//   * a line starts with the keyword the caller asks for, and asking for
//     the next line fails while the current one has an unread field;
//   * an unsigned integer is decimal digits only: a sign or an overflow is
//     an error;
//   * a double is one whole strtod token (hexfloat, decimal, inf or nan)
//     with no whitespace in front, which strtod alone would skip;
//   * a flag is `0` or `1`;
//   * the record ends with an `end` line and then the end of the input.
// A violation throws std::invalid_argument naming the line, e.g.
// "line 7: expected 'seed', got 'sed'". The reader never sizes anything
// from a declared count: callers read a list to the end of its line, then
// compare its length with the count.
//
// core/io.hpp's problem format is not a record: it allows comments, blank
// lines and decimal numbers, and keeps its own reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mf::support {

/// `value` as a C99 hexfloat; strtod reads back the same bits.
[[nodiscard]] std::string hexfloat(double value);

/// `value` as 16 lowercase hex digits.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// `text` with every line break folded into a space, so a free-text field
/// stays on its one line.
[[nodiscard]] std::string one_line(std::string text);

/// At most the first 64 bytes of client-supplied `text`, then "..." if
/// it was longer: an error body quotes an id this way, so it never echoes
/// an unbounded one back.
[[nodiscard]] std::string clipped(std::string_view text);

/// A decimal unsigned integer: digits only, no sign, no overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view token);

/// Pull reader over one record, line by line and field by field. Holds a
/// view of `text`, which must outlive it.
class RecordReader {
 public:
  explicit RecordReader(std::string_view text) : text_(text) {}

  /// Reads the next line, which must equal `exact`.
  void header(std::string_view exact);
  /// Reads the next line, which must start with `keyword`; the field reads
  /// below then take the rest of it left to right.
  RecordReader& line(std::string_view keyword);

  [[nodiscard]] std::uint64_t u64();
  /// Exactly 16 hex digits.
  [[nodiscard]] std::uint64_t hex64();
  [[nodiscard]] double real();
  [[nodiscard]] bool flag();
  /// The next field: a run of non-space bytes, viewed in the record text.
  [[nodiscard]] std::string_view word();
  /// The rest of the line as free text, leading spaces stripped.
  [[nodiscard]] std::string rest();
  /// True once the current line has no unread field.
  [[nodiscard]] bool line_done() const;
  /// The next `count` bytes verbatim, which must be followed by one '\n';
  /// carries a text that spans lines, like an embedded problem.
  [[nodiscard]] std::string_view blob(std::uint64_t count);
  /// Reads the `end` line and requires the input to stop there.
  void finish();

  /// Throws std::invalid_argument("line <n>: <what>") for the current line.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  std::string_view next_line(std::string_view expected);

  static constexpr std::size_t kNoLine = static_cast<std::size_t>(-1);

  std::string_view text_;
  std::size_t next_ = 0;  ///< offset of the first unread line
  /// An offset on the current line: its first byte, or after a blob the
  /// newline that ends the blob. fail() numbers the line by counting the
  /// newlines before it, so reading counts none. kNoLine before any line.
  std::size_t line_at_ = kNoLine;
  std::string_view keyword_;  ///< the current line's keyword
  std::string_view fields_;   ///< the current line's unread part
};

}  // namespace mf::support
