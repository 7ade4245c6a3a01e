#include "support/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "support/check.hpp"

namespace mf::support {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  MF_REQUIRE(!header_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  MF_REQUIRE(row.size() == header_.size(), "row width mismatch");
  rows_.push_back(std::move(row));
}

void Table::add_row(const std::vector<double>& row, int precision) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (double v : row) cells.push_back(format_double(v, precision));
  add_row(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << std::setw(static_cast<int>(widths[c])) << row[c] << " |";
    }
    os << '\n';
  };
  emit_row(header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

AsciiChart::AsciiChart(std::string x_label, std::string y_label, int width, int height)
    : x_label_(std::move(x_label)), y_label_(std::move(y_label)), width_(width), height_(height) {
  MF_REQUIRE(width_ >= 16 && height_ >= 4, "chart canvas too small");
}

void AsciiChart::add_series(std::string name, std::vector<double> xs, std::vector<double> ys) {
  MF_REQUIRE(xs.size() == ys.size(), "series x/y length mismatch");
  MF_REQUIRE(!xs.empty(), "empty series");
  series_.push_back({std::move(name), std::move(xs), std::move(ys)});
}

std::string AsciiChart::render() const {
  if (series_.empty()) return "(empty chart)\n";
  double xmin = std::numeric_limits<double>::infinity(), xmax = -xmin;
  double ymin = xmin, ymax = -xmin;
  for (const auto& s : series_) {
    for (double x : s.xs) {
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
    }
    for (double y : s.ys) {
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
    }
  }
  if (xmax == xmin) xmax = xmin + 1.0;
  if (ymax == ymin) ymax = ymin + 1.0;

  static constexpr char kMarks[] = "*+xo#@%&";
  std::vector<std::string> canvas(static_cast<std::size_t>(height_),
                                  std::string(static_cast<std::size_t>(width_), ' '));
  for (std::size_t si = 0; si < series_.size(); ++si) {
    const auto& s = series_[si];
    const char mark = kMarks[si % (sizeof(kMarks) - 1)];
    for (std::size_t i = 0; i < s.xs.size(); ++i) {
      const double fx = (s.xs[i] - xmin) / (xmax - xmin);
      const double fy = (s.ys[i] - ymin) / (ymax - ymin);
      const int col = std::clamp(static_cast<int>(std::lround(fx * (width_ - 1))), 0, width_ - 1);
      const int row =
          std::clamp(static_cast<int>(std::lround((1.0 - fy) * (height_ - 1))), 0, height_ - 1);
      canvas[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = mark;
    }
  }

  std::ostringstream os;
  os << y_label_ << " (" << format_double(ymin, 1) << " .. " << format_double(ymax, 1) << ")\n";
  for (const auto& line : canvas) os << "  |" << line << "|\n";
  os << "  +" << std::string(static_cast<std::size_t>(width_), '-') << "+\n";
  os << "   " << x_label_ << " (" << format_double(xmin, 0) << " .. " << format_double(xmax, 0)
     << ")   legend:";
  for (std::size_t si = 0; si < series_.size(); ++si) {
    os << ' ' << kMarks[si % (sizeof(kMarks) - 1)] << '=' << series_[si].name;
  }
  os << '\n';
  return os.str();
}

}  // namespace mf::support
