#include "core/io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "support/check.hpp"
#include "support/matrix.hpp"

namespace mf::core {

namespace {

constexpr std::string_view kProblemHeader = "microfactory-problem v1";
constexpr std::string_view kMappingHeader = "microfactory-mapping v1";

[[noreturn]] void parse_error(std::size_t line, const std::string& message) {
  throw std::invalid_argument("parse error at line " + std::to_string(line) + ": " + message);
}

/// The six bytes C-locale isspace matches: ' ', '\t', '\n', '\v', '\f', '\r'.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// One pass over a text, line by line, with the format's rules: lines split
/// on '\n' as std::getline splits them; a line that is blank in " \t\r", or
/// whose first such non-blank byte is '#', is skipped but counted; tokens
/// split on C-locale whitespace, and a token that starts with '#' ends the
/// line.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Tokenizes the next line that is neither blank nor a comment; false at
  /// the end of the text.
  bool next() {
    if (!next_line()) return false;
    tokenize();
    return true;
  }

  /// Moves to the next line that is neither blank nor a comment and leaves
  /// it untokenized; false at the end of the text.
  bool next_line() {
    while (next_ < text_.size()) {
      const std::size_t end = std::min(text_.find('\n', next_), text_.size());
      line_ = text_.substr(next_, end - next_);
      next_ = end + 1;
      ++line_number_;
      const std::size_t start = line_.find_first_not_of(" \t\r");
      if (start != std::string_view::npos && line_[start] != '#') return true;
    }
    return false;
  }

  /// Splits the current line into tokens.
  void tokenize() {
    tokens_.clear();
    for (std::size_t i = 0;;) {
      while (i < line_.size() && is_space(line_[i])) ++i;
      if (i == line_.size() || line_[i] == '#') break;
      const std::size_t token_start = i;
      while (i < line_.size() && !is_space(line_[i])) ++i;
      tokens_.push_back(line_.substr(token_start, i - token_start));
    }
  }

  /// The current line as the text holds it, without its '\n'.
  [[nodiscard]] std::string_view line() const { return line_; }

  /// True when the current line's tokens are `header`'s two words.
  [[nodiscard]] bool is_header(std::string_view header) const {
    const std::size_t space = header.find(' ');
    return tokens_.size() == 2 && tokens_[0] == header.substr(0, space) &&
           tokens_[1] == header.substr(space + 1);
  }

  /// The current line's tokens, views into the text; the next call to
  /// next() replaces them.
  [[nodiscard]] const std::vector<std::string_view>& tokens() const { return tokens_; }
  [[nodiscard]] std::size_t line_number() const { return line_number_; }

 private:
  std::string_view text_;
  std::string_view line_;
  std::size_t next_ = 0;
  std::size_t line_number_ = 0;
  std::vector<std::string_view> tokens_;
};

/// The stod rules and messages for every token the fast paths pass on. An
/// overflow or underflow is out of range even with bytes after it; any
/// other token stod does not consume whole is not a number.
double parse_double_with_stod(const std::string& token, std::size_t line) {
  std::size_t used = 0;
  double value = 0;
  try {
    value = std::stod(token, &used);
  } catch (const std::invalid_argument&) {
    used = 0;
  } catch (const std::out_of_range&) {
    parse_error(line, "number out of range: '" + token + "'");
  }
  if (used != token.size()) parse_error(line, "expected a number, got '" + token + "'");
  return value;
}

/// Where from_chars and stod give a double the same value: from_chars
/// refuses '+' and hex and treats underflow differently, so it decides only
/// magnitudes well clear of zero, subnormals and overflow.
bool in_fast_domain(double value) {
  return std::fabs(value) >= 0x1p-1000 && std::fabs(value) <= 0x1p1000;
}

double parse_double(std::string_view token, std::size_t line) {
  double value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error == std::errc{} && stop == end && in_fast_domain(value)) return value;
  return parse_double_with_stod(std::string(token), line);
}

/// Reads a w or f row in one pass: the tag, then exactly `values.size()`
/// numbers, each a whole token that parse_double would take from from_chars,
/// then only blanks or a '#' token. A run of 1 to 15 digits is below 2^53,
/// so its integer is the double from_chars would give. False on any other
/// line; `values` may then hold part of the row, and the caller re-reads it.
bool read_row(std::string_view line, char tag, std::span<double> values) {
  const char* at = line.data();
  const char* const end = at + line.size();
  const auto skip_blanks = [&] {
    while (at != end && is_space(*at)) ++at;
  };
  skip_blanks();
  if (at == end || *at != tag) return false;
  ++at;
  for (double& value : values) {
    if (at == end || !is_space(*at)) return false;  // a glued byte, or too few values
    skip_blanks();
    if (at == end) return false;
    const char* digit = at;
    std::uint64_t integer = 0;
    while (digit != end && digit - at < 16 && *digit >= '0' && *digit <= '9') {
      integer = integer * 10 + static_cast<std::uint64_t>(*digit - '0');
      ++digit;
    }
    if (digit != at && digit - at <= 15 && integer != 0 && (digit == end || is_space(*digit))) {
      value = static_cast<double>(integer);
      at = digit;
      continue;
    }
    const auto [stop, error] = std::from_chars(at, end, value);
    if (error != std::errc{} || !in_fast_domain(value)) return false;
    at = stop;
  }
  if (at != end && !is_space(*at)) return false;
  skip_blanks();
  return at == end || *at == '#';
}

std::size_t parse_index(std::string_view token, std::size_t line) {
  // Up to 15 digits is below 2^53, where stod's double holds the integer
  // exactly; from_chars on size_t takes digits only.
  if (token.size() <= 15) {
    std::size_t value = 0;
    const char* end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, value);
    if (error == std::errc{} && stop == end) return value;
  }
  const double value = parse_double(token, line);
  // 0x1p64 first: casting a double outside size_t's range is undefined.
  if (!(value >= 0 && value < 0x1p64) ||
      value != static_cast<double>(static_cast<std::size_t>(value))) {
    parse_error(line, "expected a non-negative integer, got '" + std::string(token) + "'");
  }
  return static_cast<std::size_t>(value);
}

void append_index(std::string& out, std::size_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out += ' ';
  out.append(buffer, result.ptr);
}

using Uint128 = unsigned __int128;

/// 10^0 through 10^20; 10^20 is above 2^64.
constexpr std::array<Uint128, 21> kPowersOfTen = [] {
  std::array<Uint128, 21> powers{};
  Uint128 power = 1;
  for (Uint128& entry : powers) {
    entry = power;
    power *= 10;
  }
  return powers;
}();

/// Writes printf("%.17g") of a non-integer whose magnitude is in
/// [2^-13, 2^53) at `at`, in integer arithmetic, and returns the end (at
/// most 24 bytes on); nullptr when the value's 18th significant digit is an
/// exact 5 (a tie) or its digits fall outside the decade its binary
/// exponent allows.
///
/// The magnitude is M·2^-s with M the 53-bit significand and s in [1, 65]
/// (from 2^52 up every double is an integer). Its 17 digits are
/// M·10^(16-X)/2^s rounded to nearest, X the decimal exponent; X is in
/// [-4, 15], so 10^(16-X) <= 10^20 < 2^67 and the product stays below
/// 2^120. X is floor(E·log10 2) for the binary exponent E, or one more.
/// -4 <= X < 17, so "%g" prints fixed notation.
char* write_fixed_17(char* at, double value) {
  constexpr std::uint64_t kHiddenBit = std::uint64_t{1} << 52;
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const int exponent = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const std::uint64_t significand = (bits & (kHiddenBit - 1)) | kHiddenBit;
  const int shift = 52 - exponent;
  if (shift <= 0) return nullptr;
  int decade = (exponent * 78913) >> 18;  // floor(exponent * log10 2) on [-13, 52]
  Uint128 scaled = significand * kPowersOfTen[16 - decade];
  if ((scaled >> shift) >= kPowersOfTen[17]) {
    ++decade;
    scaled = significand * kPowersOfTen[16 - decade];
  }
  auto digits = static_cast<std::uint64_t>(scaled >> shift);
  if (digits < kPowersOfTen[16] || digits >= kPowersOfTen[17]) return nullptr;
  const Uint128 rest = scaled & ((Uint128{1} << shift) - 1);
  const Uint128 half = Uint128{1} << (shift - 1);
  if (rest == half) return nullptr;
  if (rest > half) ++digits;
  if (digits == kPowersOfTen[17]) return nullptr;

  if (value < 0) *at++ = '-';
  if (decade < 0) {
    *at++ = '0';
    *at++ = '.';
    for (int zero = decade + 1; zero < 0; ++zero) *at++ = '0';
    at = std::to_chars(at, at + 17, digits).ptr;
  } else {
    // The 17 digits, then a point opened after the first decade + 1.
    char* const point = at + decade + 1;
    at = std::to_chars(at, at + 17, digits).ptr;
    std::memmove(point + 1, point, static_cast<std::size_t>(at - point));
    *point = '.';
    ++at;
  }
  // Strip trailing zeros. Seventeen digits tell a non-integer from every
  // integer (its distance to one is at least half an ulp, more than half a
  // unit in the 17th digit), so at least one fraction digit stays.
  while (at[-1] == '0') --at;
  return at;
}

/// printf("%.17g"), which is what the stream writer printed at precision 17.
/// An integer of magnitude in [1, 2^53) has at most 16 digits, which "%.17g"
/// prints exactly, so the integer writer prints it; other magnitudes in
/// [2^-13, 2^53) take write_fixed_17. Everything else, and a tie, goes
/// through to_chars.
void append_real(std::string& out, double value) {
  char buffer[32];
  buffer[0] = ' ';
  char* const first = buffer + 1;
  char* last = nullptr;
  const double magnitude = std::fabs(value);
  if (magnitude >= 1 && magnitude < 0x1p53) {
    const auto integer = static_cast<std::uint64_t>(magnitude);
    if (static_cast<double>(integer) == magnitude) {
      char* at = first;
      if (value < 0) *at++ = '-';
      last = std::to_chars(at, buffer + sizeof buffer, integer).ptr;
    }
  }
  if (last == nullptr && magnitude >= 0x1p-13 && magnitude < 0x1p53) {
    last = write_fixed_17(first, value);
  }
  if (last == nullptr) {
    last = std::to_chars(first, buffer + sizeof buffer, value, std::chars_format::general, 17).ptr;
  }
  out.append(buffer, last);
}

}  // namespace

void append_text(std::string& out, const Problem& problem) {
  const std::size_t n = problem.task_count();
  const std::size_t m = problem.machine_count();
  // At most 25 bytes per value (" -1.2345678901234567e-308") and 21 per index.
  out.reserve(out.size() + 128 + n * (2 * 21 + 2 * (m * 25 + 2)));
  out += kProblemHeader;
  out += "\nn";
  append_index(out, n);
  out += " m";
  append_index(out, m);
  out += " p";
  append_index(out, problem.type_count());
  out += "\ntypes";
  for (TaskIndex i = 0; i < n; ++i) append_index(out, problem.app.type_of(i));
  out += "\nsuccessors";
  for (TaskIndex i = 0; i < n; ++i) {
    const TaskIndex succ = problem.app.successor(i);
    if (succ == kNoTask) {
      out += " -";
    } else {
      append_index(out, succ);
    }
  }
  out += '\n';
  for (TaskIndex i = 0; i < n; ++i) {
    out += 'w';
    for (MachineIndex u = 0; u < m; ++u) append_real(out, problem.platform.time(i, u));
    out += '\n';
  }
  for (TaskIndex i = 0; i < n; ++i) {
    out += 'f';
    for (MachineIndex u = 0; u < m; ++u) append_real(out, problem.platform.failure(i, u));
    out += '\n';
  }
}

std::string to_text(const Problem& problem) {
  std::string out;
  append_text(out, problem);
  return out;
}

std::string to_text(const Mapping& mapping) {
  std::string out(kMappingHeader);
  out += "\na";
  for (MachineIndex u : mapping.assignment()) append_index(out, u);
  out += '\n';
  return out;
}

Problem problem_from_text(std::string_view text) {
  LineReader in(text);
  if (!in.next() || !in.is_header(kProblemHeader)) {
    parse_error(in.line_number(), "expected header '" + std::string(kProblemHeader) + "'");
  }

  if (!in.next()) parse_error(in.line_number(), "missing dimensions");
  const auto& dims = in.tokens();
  if (dims.size() != 6 || dims[0] != "n" || dims[2] != "m" || dims[4] != "p") {
    parse_error(in.line_number(), "expected 'n <n> m <m> p <p>'");
  }
  const std::size_t n = parse_index(dims[1], in.line_number());
  const std::size_t m = parse_index(dims[3], in.line_number());
  const std::size_t p = parse_index(dims[5], in.line_number());
  if (n == 0 || m == 0) parse_error(in.line_number(), "n and m must be positive");
  // The w and f rows hold 2·n·m values of at least two bytes each (a space
  // and a digit), so a text of S bytes declares at most S/4 cells. The
  // bound is checked by division, so n·m cannot overflow, and before the
  // matrices are allocated from the declared sizes.
  if (m > text.size() / 4 / n) {
    parse_error(in.line_number(), "n=" + std::to_string(n) + " m=" + std::to_string(m) +
                                      " needs more w and f values than the input holds");
  }

  if (!in.next()) parse_error(in.line_number(), "missing types");
  const auto& type_tokens = in.tokens();
  if (type_tokens.size() != n + 1 || type_tokens[0] != "types") {
    parse_error(in.line_number(), "expected 'types' with " + std::to_string(n) + " entries");
  }
  std::vector<TypeIndex> types(n);
  for (std::size_t i = 0; i < n; ++i) types[i] = parse_index(type_tokens[i + 1], in.line_number());

  if (!in.next()) parse_error(in.line_number(), "missing successors");
  const auto& succ_tokens = in.tokens();
  if (succ_tokens.size() != n + 1 || succ_tokens[0] != "successors") {
    parse_error(in.line_number(),
                "expected 'successors' with " + std::to_string(n) + " entries");
  }
  std::vector<TaskIndex> successors(n);
  for (std::size_t i = 0; i < n; ++i) {
    successors[i] = succ_tokens[i + 1] == "-" ? kNoTask
                                              : parse_index(succ_tokens[i + 1], in.line_number());
  }

  support::Matrix w(n, m);
  support::Matrix f(n, m);
  for (auto* matrix : {&w, &f}) {
    const char* tag = matrix == &w ? "w" : "f";
    for (std::size_t i = 0; i < n; ++i) {
      if (!in.next_line()) {
        parse_error(in.line_number(), std::string("missing '") + tag + "' row for task " +
                                          std::to_string(i));
      }
      // A row the one-pass reader cannot take whole is re-read below with
      // the token checks, the stod path and their messages.
      if (read_row(in.line(), *tag, matrix->row_data(i))) continue;
      in.tokenize();
      const auto& row = in.tokens();
      if (row.size() != m + 1 || row[0] != tag) {
        parse_error(in.line_number(), std::string("expected '") + tag + "' row with " +
                                          std::to_string(m) + " values");
      }
      for (std::size_t u = 0; u < m; ++u) {
        matrix->at(i, u) = parse_double(row[u + 1], in.line_number());
      }
    }
  }

  Application app = Application::from_successors(std::move(types), std::move(successors));
  if (app.type_count() != p) {
    parse_error(in.line_number(), "declared p=" + std::to_string(p) + " but types imply p=" +
                                      std::to_string(app.type_count()));
  }
  return Problem{std::move(app), Platform{std::move(w), std::move(f)}};
}

Mapping mapping_from_text(std::string_view text) {
  LineReader in(text);
  if (!in.next() || !in.is_header(kMappingHeader)) {
    parse_error(in.line_number(), "expected header '" + std::string(kMappingHeader) + "'");
  }
  if (!in.next()) parse_error(in.line_number(), "missing assignment");
  const auto& tokens = in.tokens();
  if (tokens.empty() || tokens[0] != "a") parse_error(in.line_number(), "expected 'a' line");
  std::vector<MachineIndex> assignment;
  assignment.reserve(tokens.size() - 1);
  for (std::size_t k = 1; k < tokens.size(); ++k) {
    assignment.push_back(parse_index(tokens[k], in.line_number()));
  }
  return Mapping{std::move(assignment)};
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  MF_REQUIRE(in.is_open(), "cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  MF_REQUIRE(out.is_open(), "cannot open file for writing: " + path);
  out << content;
  MF_REQUIRE(out.good(), "write failed: " + path);
}

}  // namespace

void save_problem(const Problem& problem, const std::string& path) {
  write_file(path, to_text(problem));
}

Problem load_problem(const std::string& path) { return problem_from_text(read_file(path)); }

void save_mapping(const Mapping& mapping, const std::string& path) {
  write_file(path, to_text(mapping));
}

Mapping load_mapping(const std::string& path) { return mapping_from_text(read_file(path)); }

}  // namespace mf::core
