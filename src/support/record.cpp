#include "support/record.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace mf::support {

namespace {

/// Digits only in `base`: no sign, no space, no prefix, no overflow.
std::optional<std::uint64_t> parse_digits(std::string_view token, int base) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value, base);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

std::string quoted(std::string_view text) {
  std::string out = "'";
  out.append(text).push_back('\'');
  return out;
}

}  // namespace

std::string hexfloat(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

std::string clipped(std::string_view text) {
  constexpr std::size_t kMax = 64;
  if (text.size() <= kMax) return std::string(text);
  return std::string(text.substr(0, kMax)) + "...";
}

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  return parse_digits(token, 10);
}

void RecordReader::fail(const std::string& what) const {
  const std::size_t line_number =
      line_at_ == kNoLine
          ? 0
          : 1 + static_cast<std::size_t>(std::count(text_.begin(), text_.begin() + line_at_, '\n'));
  throw std::invalid_argument("line " + std::to_string(line_number) + ": " + what);
}

std::string_view RecordReader::next_line(std::string_view expected) {
  line_at_ = next_;
  const std::size_t newline = text_.find('\n', next_);
  if (newline == std::string_view::npos) {
    fail("unexpected end of input, expected " + quoted(expected));
  }
  const std::string_view line = text_.substr(next_, newline - next_);
  next_ = newline + 1;
  return line;
}

std::string_view RecordReader::word() {
  const std::size_t start = fields_.find_first_not_of(' ');
  if (start == std::string_view::npos) fail("missing field in " + quoted(keyword_) + " line");
  fields_.remove_prefix(start);
  const std::size_t stop = std::min(fields_.find(' '), fields_.size());
  const std::string_view token = fields_.substr(0, stop);
  fields_.remove_prefix(stop);
  return token;
}

void RecordReader::header(std::string_view exact) {
  const std::string_view line = next_line(exact);
  if (line != exact) fail("expected header " + quoted(exact) + ", got " + quoted(line));
  keyword_ = line;
  fields_ = {};
}

RecordReader& RecordReader::line(std::string_view keyword) {
  if (!line_done()) {
    fail("unread field " + quoted(fields_.substr(fields_.find_first_not_of(' '))) +
         " in " + quoted(keyword_) + " line");
  }
  const std::string_view line = next_line(keyword);
  const std::string_view head = line.substr(0, line.find(' '));
  if (head != keyword) fail("expected " + quoted(keyword) + ", got " + quoted(head));
  keyword_ = head;
  fields_ = line.substr(head.size());
  return *this;
}

std::uint64_t RecordReader::u64() {
  const std::string_view token = word();
  const std::optional<std::uint64_t> value = parse_u64(token);
  if (!value.has_value()) fail("bad number " + quoted(token));
  return *value;
}

std::uint64_t RecordReader::hex64() {
  const std::string_view token = word();
  const std::optional<std::uint64_t> value = parse_digits(token, 16);
  if (token.size() != 16 || !value.has_value()) fail("bad hex number " + quoted(token));
  return *value;
}

double RecordReader::real() {
  // strtod needs a terminated string; the token is a view into the record.
  const std::string token(word());
  // Fields split on ' ' only, so a token can start with the whitespace
  // strtod skips ('\t', '\v', '\f', '\r'); u64() refuses it, and so does this.
  if (std::isspace(static_cast<unsigned char>(token.front())) != 0) {
    fail("bad number " + quoted(token));
  }
  char* stop = nullptr;
  const double value = std::strtod(token.c_str(), &stop);
  if (stop != token.c_str() + token.size()) fail("bad number " + quoted(token));
  return value;
}

bool RecordReader::flag() {
  const std::string_view token = word();
  if (token != "0" && token != "1") fail("bad flag " + quoted(token));
  return token == "1";
}

std::string RecordReader::rest() {
  const std::size_t start = fields_.find_first_not_of(' ');
  std::string text(start == std::string_view::npos ? "" : fields_.substr(start));
  fields_ = {};
  return text;
}

bool RecordReader::line_done() const {
  return fields_.find_first_not_of(' ') == std::string_view::npos;
}

std::string_view RecordReader::blob(std::uint64_t count) {
  if (!line_done()) {
    fail("unread field before the " + std::to_string(count) + "-byte blob");
  }
  if (count >= text_.size() - next_) {
    fail("unexpected end of input, expected " + std::to_string(count) +
         " bytes and a newline");
  }
  if (text_[next_ + count] != '\n') {
    fail("expected a newline after the " + std::to_string(count) + "-byte blob");
  }
  const std::string_view bytes = text_.substr(next_, count);
  next_ += count + 1;
  line_at_ = next_ - 1;  // the blob's last line is now the current one
  return bytes;
}

void RecordReader::finish() {
  line("end");
  if (!line_done()) fail("unread field after 'end'");
  if (next_ != text_.size()) {
    line_at_ = next_;
    fail("unexpected bytes after 'end'");
  }
}

}  // namespace mf::support
