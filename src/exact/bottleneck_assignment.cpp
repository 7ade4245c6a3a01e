#include "exact/bottleneck_assignment.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/simd.hpp"
#include "exact/hopcroft_karp.hpp"
#include "support/check.hpp"

namespace mf::exact {

namespace {

/// The threshold graphs of one solve. Every probe rebuilds the graph into
/// the same buffers and runs Hopcroft-Karp with the same workspace and
/// result, so probes after the first allocate nothing.
class ThresholdProbe {
 public:
  explicit ThresholdProbe(const support::Matrix& cost)
      : cost_(cost), graph_(cost.rows(), cost.cols()), words_((cost.cols() + 63) / 64, 0) {
    // The densest graph takes every edge; reserving it once means a later,
    // denser probe never reallocates.
    graph_.reserve_edges(cost.rows() * cost.cols());
  }

  /// Maximum matching on rows using only edges with cost <= threshold. The
  /// view stays valid until the next call.
  const MatchingResult& operator()(double threshold) {
    const core::simd::KernelTable& kernels = core::simd::active();
    graph_.reset(cost_.rows(), cost_.cols());
    for (std::size_t r = 0; r < cost_.rows(); ++r) {
      // Each probe rescans the whole matrix: compare the row wide into a
      // bitmask, then walk the set bits. Bit order is column order, so
      // edges enter each row in exactly the sequence the scalar scan
      // produced — the matching is identical, not merely equivalent.
      const std::span<const double> row = cost_.row_data(r);
      kernels.leq_mask(row.data(), threshold, row.size(), words_.data());
      for (std::size_t w = 0; w < words_.size(); ++w) {
        std::uint64_t bits = words_[w];
        while (bits != 0) {
          const std::size_t c = (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          graph_.add_edge(r, c);
        }
      }
    }
    maximum_matching(graph_, workspace_, matching_);
    return matching_;
  }

 private:
  const support::Matrix& cost_;
  BipartiteGraph graph_;
  std::vector<std::uint64_t> words_;
  MatchingWorkspace workspace_;
  MatchingResult matching_;
};

}  // namespace

BottleneckResult solve_bottleneck_assignment(const support::Matrix& cost) {
  const std::size_t n = cost.rows();
  const std::size_t m = cost.cols();
  MF_REQUIRE(n >= 1, "bottleneck assignment needs at least one row");
  MF_REQUIRE(n <= m, "bottleneck assignment requires rows <= cols");

  // Every row needs an edge, so no threshold below the largest row minimum
  // admits a perfect matching: the answer is a cost at or above it.
  double bound = -std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < n; ++r) {
    double row_min = std::numeric_limits<double>::infinity();
    for (const double c : cost.row_data(r)) {
      MF_REQUIRE(std::isfinite(c), "costs must be finite");
      row_min = std::min(row_min, c);
    }
    bound = std::max(bound, row_min);
  }
  std::vector<double> candidates;
  candidates.reserve(n * m);
  for (std::size_t r = 0; r < n; ++r) {
    for (const double c : cost.row_data(r)) {
      if (c >= bound) candidates.push_back(c);
    }
  }

  // The answer is the smallest candidate whose probe matches every row, and
  // it usually lies close to the bound. So search upward: move the next
  // batch of smallest candidates (64, then four times more each round) to
  // the front, sort and dedupe that batch alone, and probe its largest
  // value. The first batch that passes holds the answer; bisect inside it.
  // The last batch ends at the largest cost, whose probe takes every edge.
  ThresholdProbe probe(cost);
  const auto values = candidates.begin();
  double infeasible = -std::numeric_limits<double>::infinity();  // largest failed value
  double threshold = 0.0;
  std::size_t begin = 0;
  std::size_t batch = 64;
  for (;;) {
    const std::size_t end = std::min(candidates.size(), begin + batch);
    if (end < candidates.size()) {
      std::nth_element(values + begin, values + (end - 1), candidates.end());
    }
    std::sort(values + begin, values + end);
    const auto last = std::unique(values + begin, values + end);
    // A batch may restart with copies of the previous batch's largest value.
    auto lo = std::upper_bound(values + begin, last, infeasible);
    if (lo != last && probe(*(last - 1)).size == n) {
      auto hi = last - 1;
      while (lo < hi) {
        const auto mid = lo + (hi - lo) / 2;
        if (probe(*mid).size == n) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      threshold = *lo;
      break;
    }
    MF_REQUIRE(end < candidates.size(),
               "no perfect matching even with all edges (should be impossible)");
    infeasible = *(last - 1);
    begin = end;
    batch *= 4;
  }

  const MatchingResult& matching = probe(threshold);
  MF_CHECK(matching.size == n, "threshold search lost feasibility");
  BottleneckResult result;
  result.bottleneck_cost = threshold;
  result.row_to_col.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    MF_CHECK(matching.left_match[r] != MatchingResult::npos, "row left unmatched");
    result.row_to_col[r] = matching.left_match[r];
  }
  return result;
}

}  // namespace mf::exact
