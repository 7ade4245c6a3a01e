// Dense row-major matrix of doubles.
//
// Shared by the platform model (w and f matrices indexed task x machine) and
// the LP substrate (simplex tableau). Bounds are checked with MF_REQUIRE on
// the public accessors; hot loops inside the simplex use `row_data` spans.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace mf::support {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    MF_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    MF_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Unchecked row view for inner loops.
  [[nodiscard]] std::span<double> row_data(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row_data(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace mf::support
