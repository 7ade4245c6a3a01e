#include "core/io.hpp"

#include <fstream>
#include <sstream>

#include "support/check.hpp"
#include "support/matrix.hpp"

namespace mf::core {

namespace {

constexpr const char* kProblemHeader = "microfactory-problem v1";
constexpr const char* kMappingHeader = "microfactory-mapping v1";

[[noreturn]] void parse_error(std::size_t line, const std::string& message) {
  throw std::invalid_argument("parse error at line " + std::to_string(line) + ": " + message);
}

/// Reads the next non-empty, non-comment line.
bool next_line(std::istream& in, std::string& line, std::size_t& line_number) {
  while (std::getline(in, line)) {
    ++line_number;
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if (line[start] == '#') continue;
    return true;
  }
  return false;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream stream(line);
  std::vector<std::string> tokens;
  std::string token;
  while (stream >> token) {
    if (token.rfind('#', 0) == 0) break;  // trailing comment
    tokens.push_back(token);
  }
  return tokens;
}

double parse_double(const std::string& token, std::size_t line) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) parse_error(line, "trailing garbage in number '" + token + "'");
    return value;
  } catch (const std::invalid_argument&) {
    parse_error(line, "expected a number, got '" + token + "'");
  } catch (const std::out_of_range&) {
    parse_error(line, "number out of range: '" + token + "'");
  }
  __builtin_unreachable();  // both catch branches throw
}

std::size_t parse_index(const std::string& token, std::size_t line) {
  const double value = parse_double(token, line);
  // 0x1p64 first: casting a double outside size_t's range is undefined.
  if (!(value >= 0 && value < 0x1p64) ||
      value != static_cast<double>(static_cast<std::size_t>(value))) {
    parse_error(line, "expected a non-negative integer, got '" + token + "'");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

std::string to_text(const Problem& problem) {
  std::ostringstream os;
  const std::size_t n = problem.task_count();
  const std::size_t m = problem.machine_count();
  os << kProblemHeader << '\n';
  os << "n " << n << " m " << m << " p " << problem.type_count() << '\n';
  os << "types";
  for (TaskIndex i = 0; i < n; ++i) os << ' ' << problem.app.type_of(i);
  os << '\n';
  os << "successors";
  for (TaskIndex i = 0; i < n; ++i) {
    const TaskIndex succ = problem.app.successor(i);
    if (succ == kNoTask) {
      os << " -";
    } else {
      os << ' ' << succ;
    }
  }
  os << '\n';
  os.precision(17);
  for (TaskIndex i = 0; i < n; ++i) {
    os << "w";
    for (MachineIndex u = 0; u < m; ++u) os << ' ' << problem.platform.time(i, u);
    os << '\n';
  }
  for (TaskIndex i = 0; i < n; ++i) {
    os << "f";
    for (MachineIndex u = 0; u < m; ++u) os << ' ' << problem.platform.failure(i, u);
    os << '\n';
  }
  return os.str();
}

std::string to_text(const Mapping& mapping) {
  std::ostringstream os;
  os << kMappingHeader << '\n';
  os << "a";
  for (MachineIndex u : mapping.assignment()) os << ' ' << u;
  os << '\n';
  return os.str();
}

Problem problem_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;

  if (!next_line(in, line, line_number) || tokens_of(line) != tokens_of(kProblemHeader)) {
    parse_error(line_number, std::string("expected header '") + kProblemHeader + "'");
  }

  if (!next_line(in, line, line_number)) parse_error(line_number, "missing dimensions");
  const auto dims = tokens_of(line);
  if (dims.size() != 6 || dims[0] != "n" || dims[2] != "m" || dims[4] != "p") {
    parse_error(line_number, "expected 'n <n> m <m> p <p>'");
  }
  const std::size_t n = parse_index(dims[1], line_number);
  const std::size_t m = parse_index(dims[3], line_number);
  const std::size_t p = parse_index(dims[5], line_number);
  if (n == 0 || m == 0) parse_error(line_number, "n and m must be positive");
  // The w and f rows hold 2·n·m values of at least two bytes each (a space
  // and a digit), so a text of S bytes declares at most S/4 cells. The
  // bound is checked by division, so n·m cannot overflow, and before the
  // matrices are allocated from the declared sizes.
  if (m > text.size() / 4 / n) {
    parse_error(line_number, "n=" + std::to_string(n) + " m=" + std::to_string(m) +
                                 " needs more w and f values than the input holds");
  }

  if (!next_line(in, line, line_number)) parse_error(line_number, "missing types");
  auto type_tokens = tokens_of(line);
  if (type_tokens.size() != n + 1 || type_tokens[0] != "types") {
    parse_error(line_number, "expected 'types' with " + std::to_string(n) + " entries");
  }
  std::vector<TypeIndex> types(n);
  for (std::size_t i = 0; i < n; ++i) types[i] = parse_index(type_tokens[i + 1], line_number);

  if (!next_line(in, line, line_number)) parse_error(line_number, "missing successors");
  auto succ_tokens = tokens_of(line);
  if (succ_tokens.size() != n + 1 || succ_tokens[0] != "successors") {
    parse_error(line_number, "expected 'successors' with " + std::to_string(n) + " entries");
  }
  std::vector<TaskIndex> successors(n);
  for (std::size_t i = 0; i < n; ++i) {
    successors[i] =
        succ_tokens[i + 1] == "-" ? kNoTask : parse_index(succ_tokens[i + 1], line_number);
  }

  support::Matrix w(n, m);
  support::Matrix f(n, m);
  for (auto* matrix : {&w, &f}) {
    const char* tag = matrix == &w ? "w" : "f";
    for (std::size_t i = 0; i < n; ++i) {
      if (!next_line(in, line, line_number)) {
        parse_error(line_number, std::string("missing '") + tag + "' row for task " +
                                     std::to_string(i));
      }
      const auto row = tokens_of(line);
      if (row.size() != m + 1 || row[0] != tag) {
        parse_error(line_number, std::string("expected '") + tag + "' row with " +
                                     std::to_string(m) + " values");
      }
      for (std::size_t u = 0; u < m; ++u) {
        matrix->at(i, u) = parse_double(row[u + 1], line_number);
      }
    }
  }

  Application app = Application::from_successors(std::move(types), std::move(successors));
  if (app.type_count() != p) {
    parse_error(line_number, "declared p=" + std::to_string(p) + " but types imply p=" +
                                 std::to_string(app.type_count()));
  }
  return Problem{std::move(app), Platform{std::move(w), std::move(f)}};
}

Mapping mapping_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  if (!next_line(in, line, line_number) || tokens_of(line) != tokens_of(kMappingHeader)) {
    parse_error(line_number, std::string("expected header '") + kMappingHeader + "'");
  }
  if (!next_line(in, line, line_number)) parse_error(line_number, "missing assignment");
  const auto tokens = tokens_of(line);
  if (tokens.empty() || tokens[0] != "a") parse_error(line_number, "expected 'a' line");
  std::vector<MachineIndex> assignment;
  assignment.reserve(tokens.size() - 1);
  for (std::size_t k = 1; k < tokens.size(); ++k) {
    assignment.push_back(parse_index(tokens[k], line_number));
  }
  return Mapping{std::move(assignment)};
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  MF_REQUIRE(in.is_open(), "cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  MF_REQUIRE(out.is_open(), "cannot open file for writing: " + path);
  out << content;
  MF_REQUIRE(out.good(), "write failed: " + path);
}

}  // namespace

void save_problem(const Problem& problem, const std::string& path) {
  write_file(path, to_text(problem));
}

Problem load_problem(const std::string& path) { return problem_from_text(read_file(path)); }

void save_mapping(const Mapping& mapping, const std::string& path) {
  write_file(path, to_text(mapping));
}

Mapping load_mapping(const std::string& path) { return mapping_from_text(read_file(path)); }

}  // namespace mf::core
