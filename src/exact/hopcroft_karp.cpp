#include "exact/hopcroft_karp.hpp"

#include <limits>

#include "support/check.hpp"

namespace mf::exact {

BipartiteGraph::BipartiteGraph(std::size_t left_count, std::size_t right_count)
    : rows_(left_count), right_count_(right_count) {}

void BipartiteGraph::reset(std::size_t left_count, std::size_t right_count) {
  rows_.assign(left_count, Row{});
  targets_.clear();
  right_count_ = right_count;
  last_left_ = 0;
}

void BipartiteGraph::reserve_edges(std::size_t edges) { targets_.reserve(edges); }

void BipartiteGraph::add_edge(std::size_t left, std::size_t right) {
  MF_REQUIRE(left < rows_.size(), "left vertex out of range");
  MF_REQUIRE(right < right_count_, "right vertex out of range");
  MF_REQUIRE(left >= last_left_, "edges must be added in non-decreasing left order");
  if (left != last_left_) {
    rows_[left].begin = targets_.size();
    last_left_ = left;
  }
  targets_.push_back(right);
  rows_[left].end = targets_.size();
}

std::span<const std::size_t> BipartiteGraph::neighbors(std::size_t left) const {
  MF_REQUIRE(left < rows_.size(), "left vertex out of range");
  const Row& row = rows_[left];
  return std::span<const std::size_t>(targets_).subspan(row.begin, row.end - row.begin);
}

namespace {

constexpr std::size_t kNpos = MatchingResult::npos;
constexpr std::size_t kInfDist = std::numeric_limits<std::size_t>::max();

struct HkState {
  const BipartiteGraph& graph;
  std::vector<std::size_t>& left_match;
  std::vector<std::size_t>& right_match;
  std::vector<std::size_t>& dist;
  std::vector<std::size_t>& queue;  ///< FIFO: entries before `head` are popped

  bool bfs() {
    dist.assign(graph.left_count(), kInfDist);
    queue.clear();
    for (std::size_t l = 0; l < graph.left_count(); ++l) {
      if (left_match[l] == kNpos) {
        dist[l] = 0;
        queue.push_back(l);
      }
    }
    bool reachable_free_right = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t l = queue[head];
      for (std::size_t r : graph.neighbors(l)) {
        const std::size_t owner = right_match[r];
        if (owner == kNpos) {
          reachable_free_right = true;
        } else if (dist[owner] == kInfDist) {
          dist[owner] = dist[l] + 1;
          queue.push_back(owner);
        }
      }
    }
    return reachable_free_right;
  }

  bool dfs(std::size_t l) {
    for (std::size_t r : graph.neighbors(l)) {
      const std::size_t owner = right_match[r];
      if (owner == kNpos || (dist[owner] == dist[l] + 1 && dfs(owner))) {
        left_match[l] = r;
        right_match[r] = l;
        return true;
      }
    }
    dist[l] = kInfDist;
    return false;
  }
};

}  // namespace

void maximum_matching(const BipartiteGraph& graph, MatchingWorkspace& workspace,
                      MatchingResult& result) {
  result.size = 0;
  result.left_match.assign(graph.left_count(), kNpos);
  result.right_match.assign(graph.right_count(), kNpos);
  // A BFS enqueues each left vertex at most once, so this one reservation
  // covers every run on a graph of this size.
  workspace.queue.reserve(graph.left_count());

  HkState state{graph, result.left_match, result.right_match, workspace.dist, workspace.queue};
  while (state.bfs()) {
    for (std::size_t l = 0; l < graph.left_count(); ++l) {
      if (result.left_match[l] == kNpos && state.dfs(l)) ++result.size;
    }
  }
}

}  // namespace mf::exact
