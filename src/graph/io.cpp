#include "graph/io.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <new>
#include <ostream>
#include <sstream>

#include "graph/builder.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace gvc::graph {

using util::parse_int;
using util::split_ws;
using util::starts_with;
using util::to_lower;
using util::trim;

std::string IoError::to_string() const {
  // Path-level failures (cannot open, etc.) carry no line; the bare
  // message IS the diagnostic.
  if (!at_end && line <= 0) return what;
  if (at_end && line <= 0)
    return util::format("malformed graph file: %s (empty input)",
                        what.c_str());
  if (at_end)
    return util::format("malformed graph file: %s (end of input after "
                        "line %lld)",
                        what.c_str(), line);
  return util::format("malformed graph file: %s (line %lld)", what.c_str(),
                      line);
}

namespace {

std::atomic<Vertex> g_max_header_vertices{std::numeric_limits<Vertex>::max()};

/// True when a header-declared vertex count is representable and within the
/// cap. Every reader must pass counts through here BEFORE the Vertex cast
/// and before sizing a GraphBuilder — an unchecked cast wraps negative and
/// turns one hostile header line into a process abort.
bool header_count_ok(long long nn) {
  return nn >= 0 &&
         nn <= static_cast<long long>(
                   g_max_header_vertices.load(std::memory_order_relaxed));
}

IoError malformed(std::string what, long long line, bool at_end = false) {
  IoError e;
  e.what = std::move(what);
  e.line = line;
  e.at_end = at_end;
  return e;
}

/// Builds the CSR at the end of a record. A header within the cap can still
/// declare more vertices than the process can allocate (the offsets alone
/// take 8 bytes per vertex); that failure is a property of the input, so it
/// becomes an IoError pointing at the header line instead of an uncaught
/// std::bad_alloc. Nothing is half-built: the builder is left untouched.
IoResult<CsrGraph> build_or_error(const GraphBuilder& builder,
                                  long long header_line) {
  try {
    return builder.build();
  } catch (const std::bad_alloc&) {
    return malformed(util::format("vertex count %lld too large to allocate",
                                  static_cast<long long>(
                                      builder.num_vertices())),
                     header_line);
  }
}

/// Fail-fast adapter for the legacy read_*() entry points: aborts with the
/// error's full message, logs non-fatal warnings at WARN.
template <typename T>
T value_or_die(IoResult<T> r) {
  if (!r.ok()) {
    const std::string msg = r.error().to_string();
    GVC_CHECK_MSG(false, msg.c_str());
  }
  if (!r.warning.empty()) GVC_LOG_WARN("%s", r.warning.c_str());
  return std::move(r.value());
}

}  // namespace

Vertex max_header_vertices() {
  return g_max_header_vertices.load(std::memory_order_relaxed);
}

Vertex set_max_header_vertices(Vertex cap) {
  if (cap < 0) cap = 0;
  return g_max_header_vertices.exchange(cap, std::memory_order_relaxed);
}

IoResult<CsrGraph> try_read_dimacs(std::istream& in, bool strict_edge_count) {
  std::string line;
  long long line_no = 0;
  long long header_line = 0;
  bool have_header = false;
  Vertex n = 0;
  long long mm = 0;
  GraphBuilder builder(0);
  while (std::getline(in, line)) {
    ++line_no;
    auto t = trim(line);
    if (t.empty() || t[0] == 'c') continue;
    if (t[0] == 'p') {
      if (have_header) return malformed("duplicate p line", line_no);
      auto fields = split_ws(t);
      if (fields.size() < 4) return malformed("short p line", line_no);
      long long nn = 0;
      if (!parse_int(fields[2], nn) || !parse_int(fields[3], mm) || nn < 0 ||
          mm < 0)
        return malformed("bad p line numbers", line_no);
      if (!header_count_ok(nn))
        return malformed("vertex count out of range", line_no);
      n = static_cast<Vertex>(nn);
      builder = GraphBuilder(n);
      have_header = true;
      header_line = line_no;
      continue;
    }
    if (t[0] == 'e') {
      if (!have_header) return malformed("edge before p line", line_no);
      auto fields = split_ws(t);
      if (fields.size() < 3) return malformed("short e line", line_no);
      long long u = 0, v = 0;
      if (!parse_int(fields[1], u) || !parse_int(fields[2], v))
        return malformed("bad e line numbers", line_no);
      if (u < 1 || u > n || v < 1 || v > n)
        return malformed("edge endpoint out of range", line_no);
      builder.add_edge(static_cast<Vertex>(u - 1), static_cast<Vertex>(v - 1));
      continue;
    }
    return malformed("unknown record type", line_no);
  }
  if (!have_header)
    return malformed("missing p line", line_no, /*at_end=*/true);
  IoResult<CsrGraph> result = build_or_error(builder, header_line);
  if (!result.ok()) return result;
  const long long body_edges =
      static_cast<long long>(result.value().num_edges());
  if (body_edges != mm) {
    // The p-line edge count used to be parsed and silently discarded; a
    // disagreement now surfaces. Warning by default (wild files routinely
    // lie), hard error in strict mode (a short corpus record usually means
    // truncation).
    if (strict_edge_count)
      return malformed(util::format("edge count disagrees with p line "
                                    "(header says %lld, body has %lld)",
                                    mm, body_edges),
                       header_line);
    result.warning = util::format(
        "dimacs edge count disagrees with p line (line %lld): header says "
        "%lld, body has %lld after normalization",
        header_line, mm, body_edges);
  }
  return result;
}

CsrGraph read_dimacs(std::istream& in) {
  return value_or_die(try_read_dimacs(in));
}

void write_dimacs(std::ostream& out, const CsrGraph& g,
                  const std::string& comment) {
  if (!comment.empty()) out << "c " << comment << '\n';
  out << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (Vertex u : g.neighbors(v))
      if (u > v) out << "e " << (v + 1) << ' ' << (u + 1) << '\n';
}

IoResult<CsrGraph> try_read_metis(std::istream& in) {
  std::string line;
  long long line_no = 0;
  // Header: skip comment lines starting with '%'.
  long long n = 0, m = 0, fmt = 0;
  bool have_header = false;
  long long header_line = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto t = trim(line);
    if (t.empty() || t[0] == '%') continue;
    header_line = line_no;
    auto fields = split_ws(t);
    if (fields.size() < 2) return malformed("short METIS header", line_no);
    if (!parse_int(fields[0], n) || !parse_int(fields[1], m) || n < 0)
      return malformed("bad METIS header", line_no);
    if (!header_count_ok(n))
      return malformed("vertex count out of range", line_no);
    if (fields.size() >= 3 && (!parse_int(fields[2], fmt) || fmt != 0))
      return malformed("weighted METIS format unsupported", line_no);
    have_header = true;
    break;
  }
  if (!have_header)
    return malformed("missing METIS header", line_no, /*at_end=*/true);
  GraphBuilder builder(static_cast<Vertex>(n));
  Vertex v = 0;
  while (v < n && std::getline(in, line)) {
    ++line_no;
    auto t = trim(line);
    if (!t.empty() && t[0] == '%') continue;
    for (const auto& f : split_ws(t)) {
      long long u = 0;
      if (!parse_int(f, u)) return malformed("bad METIS neighbor", line_no);
      if (u < 1 || u > n)
        return malformed("METIS neighbor out of range", line_no);
      builder.add_edge(v, static_cast<Vertex>(u - 1));
    }
    ++v;
  }
  if (v != n)
    return malformed("METIS file truncated", line_no, /*at_end=*/true);
  return build_or_error(builder, header_line);
}

CsrGraph read_metis(std::istream& in) {
  return value_or_die(try_read_metis(in));
}

void write_metis(std::ostream& out, const CsrGraph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    for (Vertex u : g.neighbors(v)) {
      if (!first) out << ' ';
      out << (u + 1);
      first = false;
    }
    out << '\n';
  }
}

IoResult<CsrGraph> try_read_matrix_market(std::istream& in) {
  std::string line;
  long long line_no = 0;
  if (!std::getline(in, line))
    return malformed("empty mtx file", 0, /*at_end=*/true);
  ++line_no;
  auto banner = to_lower(trim(line));
  if (!starts_with(banner, "%%matrixmarket"))
    return malformed("missing MatrixMarket banner", line_no);
  if (banner.find("coordinate") == std::string::npos)
    return malformed("only coordinate mtx supported", line_no);
  // Header line: rows cols entries.
  long long rows = 0, cols = 0, entries = 0;
  bool have_size = false;
  while (std::getline(in, line)) {
    ++line_no;
    auto t = trim(line);
    if (t.empty() || t[0] == '%') continue;
    auto fields = split_ws(t);
    if (fields.size() < 3) return malformed("short mtx size line", line_no);
    if (!parse_int(fields[0], rows) || !parse_int(fields[1], cols) ||
        !parse_int(fields[2], entries))
      return malformed("bad mtx size line", line_no);
    have_size = true;
    break;
  }
  if (!have_size)
    return malformed("missing mtx size line", line_no, /*at_end=*/true);
  if (rows != cols)
    return malformed("mtx adjacency matrix must be square", line_no);
  if (rows < 0 || entries < 0)
    return malformed("bad mtx size line", line_no);
  if (!header_count_ok(rows))
    return malformed("vertex count out of range", line_no);
  const long long header_line = line_no;
  GraphBuilder builder(static_cast<Vertex>(rows));
  long long seen = 0;
  while (seen < entries && std::getline(in, line)) {
    ++line_no;
    auto t = trim(line);
    if (t.empty() || t[0] == '%') continue;
    auto fields = split_ws(t);
    if (fields.size() < 2) return malformed("short mtx entry", line_no);
    long long u = 0, v = 0;
    if (!parse_int(fields[0], u) || !parse_int(fields[1], v))
      return malformed("bad mtx entry", line_no);
    if (u < 1 || u > rows || v < 1 || v > rows)
      return malformed("mtx entry out of range", line_no);
    builder.add_edge(static_cast<Vertex>(u - 1), static_cast<Vertex>(v - 1));
    ++seen;
  }
  if (seen != entries)
    return malformed("mtx file truncated", line_no, /*at_end=*/true);
  return build_or_error(builder, header_line);
}

CsrGraph read_matrix_market(std::istream& in) {
  return value_or_die(try_read_matrix_market(in));
}

IoResult<CsrGraph> try_read_edge_list(std::istream& in) {
  std::string line;
  long long line_no = 0;
  std::vector<std::pair<long long, long long>> raw;
  std::map<long long, Vertex> compact;
  while (std::getline(in, line)) {
    ++line_no;
    auto t = trim(line);
    if (t.empty() || t[0] == '#' || t[0] == '%') continue;
    auto fields = split_ws(t);
    if (fields.size() < 2) return malformed("short edge list line", line_no);
    long long u = 0, v = 0;
    if (!parse_int(fields[0], u) || !parse_int(fields[1], v))
      return malformed("bad edge list line", line_no);
    raw.emplace_back(u, v);
    compact.emplace(u, 0);
    compact.emplace(v, 0);
  }
  Vertex next = 0;
  for (auto& [id, mapped] : compact) mapped = next++;
  GraphBuilder builder(next);
  for (auto [u, v] : raw) builder.add_edge(compact.at(u), compact.at(v));
  return builder.build();
}

CsrGraph read_edge_list(std::istream& in) {
  return value_or_die(try_read_edge_list(in));
}

void write_edge_list(std::ostream& out, const CsrGraph& g) {
  out << "# gvc edge list: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (Vertex u : g.neighbors(v))
      if (u > v) out << v << ' ' << u << '\n';
}

IoResult<CsrGraph> try_read_pace(std::istream& in) {
  std::string line;
  long long line_no = 0;
  bool have_header = false;
  long long header_line = 0;
  long long n = 0, m = 0;
  GraphBuilder builder(0);
  while (std::getline(in, line)) {
    ++line_no;
    auto t = trim(line);
    if (t.empty() || t[0] == 'c') continue;
    if (t[0] == 'p') {
      if (have_header) return malformed("duplicate p line", line_no);
      auto fields = split_ws(t);
      if (fields.size() < 4) return malformed("short p line", line_no);
      const auto desc = to_lower(fields[1]);
      if (desc != "td" && desc != "vc" && desc != "edge")
        return malformed("unknown PACE problem descriptor", line_no);
      if (!parse_int(fields[2], n) || !parse_int(fields[3], m) || n < 0 ||
          m < 0)
        return malformed("bad p line numbers", line_no);
      if (!header_count_ok(n))
        return malformed("vertex count out of range", line_no);
      builder = GraphBuilder(static_cast<Vertex>(n));
      have_header = true;
      header_line = line_no;
      continue;
    }
    if (!have_header) return malformed("edge before p line", line_no);
    auto fields = split_ws(t);
    if (fields.size() < 2) return malformed("short edge line", line_no);
    long long u = 0, v = 0;
    if (!parse_int(fields[0], u) || !parse_int(fields[1], v))
      return malformed("bad edge line numbers", line_no);
    if (u < 1 || u > n || v < 1 || v > n)
      return malformed("edge endpoint out of range", line_no);
    builder.add_edge(static_cast<Vertex>(u - 1), static_cast<Vertex>(v - 1));
  }
  if (!have_header)
    return malformed("missing p line", line_no, /*at_end=*/true);
  return build_or_error(builder, header_line);
}

CsrGraph read_pace(std::istream& in) { return value_or_die(try_read_pace(in)); }

void write_pace(std::ostream& out, const CsrGraph& g,
                const std::string& comment) {
  if (!comment.empty()) out << "c " << comment << '\n';
  out << "p td " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (Vertex u : g.neighbors(v))
      if (u > v) out << (v + 1) << ' ' << (u + 1) << '\n';
}

void write_pace_solution(std::ostream& out, Vertex num_vertices,
                         const std::vector<Vertex>& cover) {
  out << "s vc " << num_vertices << ' ' << cover.size() << '\n';
  for (Vertex v : cover) out << (v + 1) << '\n';
}

IoResult<std::vector<Vertex>> try_read_pace_solution(std::istream& in) {
  std::string line;
  long long line_no = 0;
  bool have_header = false;
  long long n = 0, k = 0;
  std::vector<Vertex> cover;
  while (std::getline(in, line)) {
    ++line_no;
    auto t = trim(line);
    if (t.empty() || t[0] == 'c') continue;
    if (t[0] == 's') {
      if (have_header) return malformed("duplicate s line", line_no);
      auto fields = split_ws(t);
      if (fields.size() < 4 || to_lower(fields[1]) != "vc")
        return malformed("bad s line", line_no);
      if (!parse_int(fields[2], n) || !parse_int(fields[3], k) || n < 0 ||
          k < 0 || k > n)
        return malformed("bad s line numbers", line_no);
      if (!header_count_ok(n))
        return malformed("vertex count out of range", line_no);
      // No reserve(k): the cover grows with the lines actually read, so a
      // lying header cannot demand memory the body never fills.
      have_header = true;
      continue;
    }
    if (!have_header) return malformed("vertex before s line", line_no);
    long long v = 0;
    if (!parse_int(t, v)) return malformed("bad solution vertex", line_no);
    if (v < 1 || v > n)
      return malformed("solution vertex out of range", line_no);
    cover.push_back(static_cast<Vertex>(v - 1));
  }
  if (!have_header)
    return malformed("missing s line", line_no, /*at_end=*/true);
  if (static_cast<long long>(cover.size()) != k)
    return malformed("solution size disagrees with s line", line_no,
                     /*at_end=*/true);
  std::sort(cover.begin(), cover.end());
  return cover;
}

std::vector<Vertex> read_pace_solution(std::istream& in) {
  return value_or_die(try_read_pace_solution(in));
}

namespace {

enum class Format { kDimacs, kMetis, kMtx, kPace, kEdgeList };

Format sniff(const std::string& path) {
  auto p = to_lower(path);
  if (util::ends_with(p, ".col") || util::ends_with(p, ".clq") ||
      util::ends_with(p, ".dimacs"))
    return Format::kDimacs;
  if (util::ends_with(p, ".graph") || util::ends_with(p, ".metis"))
    return Format::kMetis;
  if (util::ends_with(p, ".mtx")) return Format::kMtx;
  if (util::ends_with(p, ".gr")) return Format::kPace;
  return Format::kEdgeList;
}

}  // namespace

IoResult<CsrGraph> try_load_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    return malformed(util::format("cannot open graph file: %s", path.c_str()),
                     0);
  switch (sniff(path)) {
    case Format::kDimacs:   return try_read_dimacs(in);
    case Format::kMetis:    return try_read_metis(in);
    case Format::kMtx:      return try_read_matrix_market(in);
    case Format::kPace:     return try_read_pace(in);
    case Format::kEdgeList: return try_read_edge_list(in);
  }
  GVC_CHECK(false);
  return malformed("unreachable", 0);
}

CsrGraph load_graph(const std::string& path) {
  return value_or_die(try_load_graph(path));
}

void save_graph(const std::string& path, const CsrGraph& g) {
  std::ofstream out(path);
  GVC_CHECK_MSG(out.good(), "cannot open output file");
  switch (sniff(path)) {
    case Format::kDimacs: write_dimacs(out, g); break;
    case Format::kPace:   write_pace(out, g); break;
    default:              write_edge_list(out, g); break;
  }
}

}  // namespace gvc::graph
