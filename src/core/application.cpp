#include "core/application.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "support/check.hpp"

namespace mf::core {

Application Application::linear_chain(std::vector<TypeIndex> types) {
  const std::size_t n = types.size();
  std::vector<TaskIndex> successor(n, kNoTask);
  for (std::size_t i = 0; i + 1 < n; ++i) successor[i] = i + 1;
  return from_successors(std::move(types), std::move(successor));
}

Application Application::from_successors(std::vector<TypeIndex> types,
                                         std::vector<TaskIndex> successor) {
  MF_REQUIRE(!types.empty(), "application needs at least one task");
  MF_REQUIRE(types.size() == successor.size(), "types/successor size mismatch");
  Application app;
  app.types_ = std::move(types);
  app.successor_ = std::move(successor);
  app.finalize();
  return app;
}

void Application::finalize() {
  const std::size_t n = types_.size();

  // Types must be dense 0..p-1 so tasks_by_type_ is directly indexable.
  type_count_ = 0;
  for (TypeIndex t : types_) {
    // Checked before sizing the per-type lists from it: dense types are all
    // below the task count.
    MF_REQUIRE(t < n, "task types must be dense (type " + std::to_string(t) +
                          " with only " + std::to_string(n) + " tasks)");
    type_count_ = std::max(type_count_, t + 1);
  }
  tasks_by_type_.assign(type_count_, {});
  for (TaskIndex i = 0; i < n; ++i) tasks_by_type_[types_[i]].push_back(i);
  for (TypeIndex t = 0; t < type_count_; ++t) {
    MF_REQUIRE(!tasks_by_type_[t].empty(),
               "task types must be dense (type " + std::to_string(t) + " unused)");
  }

  predecessors_.assign(n, {});
  sinks_.clear();
  for (TaskIndex i = 0; i < n; ++i) {
    const TaskIndex s = successor_[i];
    if (s == kNoTask) {
      sinks_.push_back(i);
    } else {
      MF_REQUIRE(s < n, "successor index out of range");
      MF_REQUIRE(s != i, "task cannot be its own successor");
      predecessors_[s].push_back(i);
    }
  }
  MF_REQUIRE(!sinks_.empty(), "in-tree application has a cycle (no sink)");

  sources_.clear();
  for (TaskIndex i = 0; i < n; ++i) {
    if (predecessors_[i].empty()) sources_.push_back(i);
  }

  // Reverse-topological order (successors first). Kahn's algorithm on the
  // successor relation also detects cycles.
  backward_order_.clear();
  backward_order_.reserve(n);
  std::vector<std::size_t> remaining_out(n, 0);
  for (TaskIndex i = 0; i < n; ++i) remaining_out[i] = successor_[i] == kNoTask ? 0 : 1;
  std::vector<TaskIndex> frontier = sinks_;
  // Among ready tasks we pick the *largest* index first so that for a linear
  // chain the order is exactly T_n, T_{n-1}, ..., T_1 as in Algorithms 1-6.
  std::make_heap(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end());
    const TaskIndex i = frontier.back();
    frontier.pop_back();
    backward_order_.push_back(i);
    for (TaskIndex pred : predecessors_[i]) {
      if (--remaining_out[pred] == 0) {
        frontier.push_back(pred);
        std::push_heap(frontier.begin(), frontier.end());
      }
    }
  }
  MF_REQUIRE(backward_order_.size() == n, "in-tree application has a cycle");

  is_linear_chain_ = sinks_.size() == 1;
  for (TaskIndex i = 0; i < n && is_linear_chain_; ++i) {
    is_linear_chain_ = predecessors_[i].size() <= 1;
  }
}

TypeIndex Application::type_of(TaskIndex i) const {
  MF_REQUIRE(i < types_.size(), "task index out of range");
  return types_[i];
}

TaskIndex Application::successor(TaskIndex i) const {
  MF_REQUIRE(i < successor_.size(), "task index out of range");
  return successor_[i];
}

const std::vector<TaskIndex>& Application::predecessors(TaskIndex i) const {
  MF_REQUIRE(i < predecessors_.size(), "task index out of range");
  return predecessors_[i];
}

const std::vector<TaskIndex>& Application::tasks_of_type(TypeIndex t) const {
  MF_REQUIRE(t < type_count_, "type index out of range");
  return tasks_by_type_[t];
}

std::string Application::describe() const {
  std::ostringstream os;
  os << (is_linear_chain_ ? "linear chain" : "in-tree") << ", n=" << task_count()
     << " tasks, p=" << type_count_ << " types, " << sources_.size() << " source(s), "
     << sinks_.size() << " sink(s)";
  return os.str();
}

}  // namespace mf::core
