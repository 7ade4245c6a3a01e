// Tiny command-line flag parser used by the example programs.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
// Deliberately small: examples should read like scripts, not frameworks.
// Numeric getters are strict: a value that is not wholly a number (`abc`,
// `12x`, a bare switch's "true") throws instead of reading as 0.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mf::support {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  /// The flag's value as a base-10 integer, or `fallback` when absent.
  /// Throws std::invalid_argument naming the flag when the value is not a
  /// whole integer or overflows 64 bits.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// The flag's value as a finite number, or `fallback` when absent.
  /// Throws std::invalid_argument naming the flag on anything else.
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

  /// Every parsed flag name (without the leading "--"), sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mf::support
