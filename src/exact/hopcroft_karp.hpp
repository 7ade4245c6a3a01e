// Hopcroft-Karp maximum bipartite matching in O(E sqrt(V)).
//
// Substrate for the bottleneck assignment solver: deciding whether all
// tasks can be matched to distinct machines using only edges below a cost
// threshold is a maximum-matching query. That solver asks it once per
// threshold probe, so the graph stores compressed rows that reset() empties
// without freeing, and the matching fills a result and a workspace the
// caller keeps: repeated probes of one solve allocate nothing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mf::exact {

class BipartiteGraph {
 public:
  BipartiteGraph(std::size_t left_count, std::size_t right_count);

  /// Removes every edge and resizes the graph, keeping the allocated
  /// capacity.
  void reset(std::size_t left_count, std::size_t right_count);

  /// Makes room for `edges` edges in total, so filling the graph up to that
  /// count does not reallocate.
  void reserve_edges(std::size_t edges);

  /// Adds the edge left-right. Edges enter row by row: `left` must not be
  /// below the left vertex of the previous edge since the last reset.
  void add_edge(std::size_t left, std::size_t right);

  [[nodiscard]] std::size_t left_count() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t right_count() const noexcept { return right_count_; }
  /// Right neighbours of `left`, in the order their edges were added.
  [[nodiscard]] std::span<const std::size_t> neighbors(std::size_t left) const;

 private:
  struct Row {
    std::size_t begin = 0;  ///< first edge of the row in targets_
    std::size_t end = 0;    ///< one past its last edge
  };
  std::vector<Row> rows_;              ///< one per left vertex
  std::vector<std::size_t> targets_;  ///< right ends of all edges, row by row
  std::size_t right_count_;
  std::size_t last_left_ = 0;  ///< left vertex of the latest edge
};

struct MatchingResult {
  std::size_t size = 0;
  /// left_match[l] = matched right vertex, or npos when unmatched.
  std::vector<std::size_t> left_match;
  /// right_match[r] = matched left vertex, or npos when unmatched.
  std::vector<std::size_t> right_match;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Scratch buffers of maximum_matching: the BFS layer of each left vertex
/// and the BFS queue. A caller that keeps one across runs allocates them
/// once.
struct MatchingWorkspace {
  std::vector<std::size_t> dist;
  std::vector<std::size_t> queue;
};

/// Fills `result` with a maximum matching of `graph`, found from an empty
/// matching. `result` and `workspace` keep their capacity between calls, and
/// their previous contents do not affect the matching.
void maximum_matching(const BipartiteGraph& graph, MatchingWorkspace& workspace,
                      MatchingResult& result);

}  // namespace mf::exact
