// Plain-text rendering of experiment results.
//
// `mfsched --figure` prints the same series the paper plots; `Table` renders
// aligned columns and `AsciiChart` draws a rough terminal line chart so the
// *shape* of each figure (who wins, where curves cross) is visible straight
// from the terminal without plotting tools.
#pragma once

#include <string>
#include <vector>

namespace mf::support {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  /// Formats numeric cells with fixed precision.
  void add_row(const std::vector<double>& row, int precision = 1);

  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const noexcept { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Multi-series ASCII line chart. X values are shared across series.
class AsciiChart {
 public:
  AsciiChart(std::string x_label, std::string y_label, int width = 72, int height = 20);

  void add_series(std::string name, std::vector<double> xs, std::vector<double> ys);

  [[nodiscard]] std::string render() const;

 private:
  std::string x_label_;
  std::string y_label_;
  int width_;
  int height_;
  struct Series {
    std::string name;
    std::vector<double> xs;
    std::vector<double> ys;
  };
  std::vector<Series> series_;
};

/// Formats a double with `precision` digits after the decimal point.
[[nodiscard]] std::string format_double(double value, int precision = 1);

}  // namespace mf::support
