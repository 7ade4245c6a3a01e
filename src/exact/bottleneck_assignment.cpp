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

constexpr std::size_t kNpos = MatchingResult::npos;

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

  /// Maximum matching on rows using only edges with cost <= threshold,
  /// found from an empty matching. The caller may augment it; the next
  /// call overwrites it.
  MatchingResult& operator()(double threshold) {
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

/// Minimax augmenting paths over the dense cost matrix: Dijkstra with max
/// in place of +. A path's cost is its largest unmatched edge; the matched
/// edges it runs back along are already in the matching. Its buffers are
/// sized once per solve, so a search allocates nothing.
class AugmentingSearch {
 public:
  explicit AugmentingSearch(std::size_t cols) : reach_(cols), via_(cols) {}

  /// Finds, among the alternating paths from the free rows of `matching`
  /// to a free column, one of least cost, augments `matching` along it and
  /// returns that cost. `matching` must leave a row free, and the matrix
  /// must have no more rows than columns. O(rows·cols).
  double augment(const support::Matrix& cost, MatchingResult& matching) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::fill(reach_.begin(), reach_.end(), kInf);
    // Every free row starts a path; a column's reach is its cheapest edge
    // from any of them.
    std::size_t lightest = kNpos;
    for (std::size_t r = 0; r < cost.rows(); ++r) {
      if (matching.left_match[r] == kNpos) lightest = relax(cost.row_data(r), r, -kInf);
    }
    // Settle the open column of least reach: no path reaches it cheaper.
    // A free one ends the search; a matched one extends the paths through
    // its row.
    for (;;) {
      MF_CHECK(lightest != kNpos, "minimax search reached no free column");
      const std::size_t owner = matching.right_match[lightest];
      if (owner == kNpos) break;
      const double level = reach_[lightest];
      reach_[lightest] = kSettled;
      lightest = relax(cost.row_data(owner), owner, level);
    }
    const double path_cost = reach_[lightest];
    flip_path(lightest, matching);
    return path_cost;
  }

 private:
  /// Settled columns read NaN, which no comparison below lets through: no
  /// path improves them and none is the lightest.
  static constexpr double kSettled = std::numeric_limits<double>::quiet_NaN();

  /// Offers every open column the paths through `row` at cost `level`, and
  /// returns the open column of least reach (kNpos once none is open).
  std::size_t relax(std::span<const double> costs, std::size_t row, double level) {
    std::size_t lightest = kNpos;
    double least = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < costs.size(); ++c) {
      const double through = std::max(level, costs[c]);
      if (through < reach_[c]) {
        reach_[c] = through;
        via_[c] = row;
      }
      if (reach_[c] < least) {
        least = reach_[c];
        lightest = c;
      }
    }
    return lightest;
  }

  /// Matches the path ending at free column `c`: each row on it takes the
  /// column that reached it and leaves its old one to the row before it.
  void flip_path(std::size_t c, MatchingResult& matching) const {
    for (;;) {
      const std::size_t r = via_[c];
      const std::size_t previous = matching.left_match[r];
      matching.left_match[r] = c;
      matching.right_match[c] = r;
      if (previous == kNpos) break;
      c = previous;
    }
    ++matching.size;
  }

  std::vector<double> reach_;      ///< least path cost to each column so far
  std::vector<std::size_t> via_;  ///< the row whose edge gives it
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

  // Match within the bound, then grow the matching one minimax augmenting
  // path at a time. The threshold only rises, to the largest path cost.
  // It never passes the answer T: while the matching is short, its edges
  // are within the threshold, hence within T, and a perfect matching
  // within T differs from it by an augmenting path within T. Once the
  // matching is perfect, it proves its own threshold feasible, so that
  // threshold is T.
  ThresholdProbe probe(cost);
  AugmentingSearch search(m);
  MatchingResult& matching = probe(bound);
  double threshold = bound;
  bool augmented = false;
  while (matching.size < n) {
    threshold = std::max(threshold, search.augment(cost, matching));
    augmented = true;
  }
  // The matching returned is the one a probe at the threshold finds. With
  // no augmentation the bound's probe was that probe.
  if (augmented) probe(threshold);
  MF_CHECK(matching.size == n, "threshold probe lost feasibility");

  BottleneckResult result;
  result.bottleneck_cost = threshold;
  result.row_to_col.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    MF_CHECK(matching.left_match[r] != kNpos, "row left unmatched");
    result.row_to_col[r] = matching.left_match[r];
  }
  return result;
}

}  // namespace mf::exact
