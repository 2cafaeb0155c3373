#include "graph/corpus.hpp"

#include <istream>
#include <map>
#include <new>
#include <ostream>
#include <utility>

#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace gvc::graph {

using util::parse_int;
using util::split_ws;
using util::trim;

const char* corpus_format_name(CorpusFormat f) {
  switch (f) {
    case CorpusFormat::kAuto:     return "auto";
    case CorpusFormat::kGspan:    return "gspan";
    case CorpusFormat::kDimacs:   return "dimacs";
    case CorpusFormat::kEdgeList: return "edge-list";
  }
  return "?";
}

CorpusReader::CorpusReader(std::istream& in, CorpusFormat format)
    : in_(in), resolved_(format) {}

bool CorpusReader::get_line(std::string& out) {
  if (has_pending_) {
    out = std::move(pending_);
    has_pending_ = false;
    return true;
  }
  if (!std::getline(in_, out)) return false;
  ++line_no_;
  return true;
}

void CorpusReader::push_back(std::string line) {
  GVC_CHECK(!has_pending_);
  pending_ = std::move(line);
  has_pending_ = true;
}

void CorpusReader::skip_record(long long line, std::string reason) {
  skips_.push_back(CorpusSkip{next_index_, line, std::move(reason)});
  ++next_index_;
}

void CorpusReader::resync_to_token(char token) {
  std::string line;
  while (get_line(line)) {
    auto t = trim(line);
    if (!t.empty() && t[0] == token) {
      push_back(std::move(line));
      return;
    }
  }
}

void CorpusReader::resync_to_blank() {
  std::string line;
  while (get_line(line)) {
    if (trim(line).empty()) return;
  }
}

bool CorpusReader::detect_format() {
  // Peek past blank and comment lines for the first significant token.
  // '#'/'%' comments are legal in edge lists and never start a gspan or
  // DIMACS stream, so they don't decide anything.
  std::string line;
  while (get_line(line)) {
    auto t = trim(line);
    if (t.empty() || t[0] == '#' || t[0] == '%') continue;
    if (t[0] == 't')
      resolved_ = CorpusFormat::kGspan;
    else if (t[0] == 'p' || t[0] == 'c')
      resolved_ = CorpusFormat::kDimacs;
    else
      resolved_ = CorpusFormat::kEdgeList;
    push_back(std::move(line));
    return true;
  }
  return false;  // nothing but blanks/comments: an empty corpus
}

std::optional<CorpusRecord> CorpusReader::next() {
  if (resolved_ == CorpusFormat::kAuto && !detect_format()) return std::nullopt;
  // Each attempt either yields, records a skip and loops, or ends the
  // stream. Bounded by input size: every iteration consumes lines.
  for (;;) {
    std::optional<CorpusRecord> rec;
    const auto skips_before = skips_.size();
    switch (resolved_) {
      case CorpusFormat::kGspan:    rec = next_gspan(); break;
      case CorpusFormat::kDimacs:   rec = next_dimacs(); break;
      case CorpusFormat::kEdgeList: rec = next_edge_list(); break;
      case CorpusFormat::kAuto:     GVC_CHECK(false); break;
    }
    if (rec) return rec;
    if (skips_.size() == skips_before) return std::nullopt;  // end of stream
  }
}

// --------------------------------------------------------------------------
// gspan transactions

std::optional<CorpusRecord> CorpusReader::next_gspan() {
  std::string line;
  long long start_line = 0;
  std::string id;
  // Find the record's "t" line.
  for (;;) {
    if (!get_line(line)) return std::nullopt;
    auto t = trim(line);
    if (t.empty() || t[0] == '#' || t[0] == '%') continue;
    if (t[0] != 't') {
      skip_record(line_no_, "expected t line");
      resync_to_token('t');
      return std::nullopt;  // caller loops; skip was recorded
    }
    auto fields = split_ws(t);
    if (fields.size() >= 3) id = fields[2];
    start_line = line_no_;
    break;
  }
  // Body: "v <id> <label>" then "e <u> <v> <label>", until the next "t".
  Vertex n = 0;
  std::vector<std::pair<Vertex, Vertex>> edges;
  while (get_line(line)) {
    auto t = trim(line);
    if (t.empty() || t[0] == '#' || t[0] == '%') continue;
    if (t[0] == 't') {
      push_back(std::move(line));
      break;
    }
    auto fields = split_ws(t);
    if (t[0] == 'v') {
      long long vid = 0;
      if (fields.size() < 2 || !parse_int(fields[1], vid)) {
        skip_record(line_no_, "bad v line");
        resync_to_token('t');
        return std::nullopt;
      }
      if (vid != n) {
        skip_record(line_no_, "non-sequential vertex id");
        resync_to_token('t');
        return std::nullopt;
      }
      ++n;
      continue;
    }
    if (t[0] == 'e') {
      long long u = 0, v = 0;
      if (fields.size() < 3 || !parse_int(fields[1], u) ||
          !parse_int(fields[2], v)) {
        skip_record(line_no_, "bad e line");
        resync_to_token('t');
        return std::nullopt;
      }
      if (u < 0 || u >= n || v < 0 || v >= n) {
        skip_record(line_no_, "edge endpoint out of range");
        resync_to_token('t');
        return std::nullopt;
      }
      edges.emplace_back(static_cast<Vertex>(u), static_cast<Vertex>(v));
      continue;
    }
    skip_record(line_no_, "unknown gspan record type");
    resync_to_token('t');
    return std::nullopt;
  }
  if (n == 0) {
    skip_record(start_line, "empty graph record");
    return std::nullopt;
  }
  GraphBuilder builder(n);
  for (auto [u, v] : edges) builder.add_edge(u, v);
  CorpusRecord rec;
  rec.index = next_index_++;
  rec.line = start_line;
  rec.id = std::move(id);
  rec.graph = builder.build();
  return rec;
}

// --------------------------------------------------------------------------
// DIMACS stream: concatenated records, each "p" line starting a new one.

std::optional<CorpusRecord> CorpusReader::next_dimacs() {
  std::string line;
  long long start_line = 0;
  long long header_line = 0;
  Vertex n = 0;
  long long mm = 0;
  bool have_header = false;
  // Leading comments + the "p" line.
  for (;;) {
    if (!get_line(line)) {
      if (start_line != 0) {
        // Comments without a header at end of stream: a truncated record.
        skip_record(start_line, "missing p line");
      }
      return std::nullopt;
    }
    auto t = trim(line);
    if (t.empty()) {
      if (start_line != 0) {
        skip_record(start_line, "missing p line");
        return std::nullopt;
      }
      continue;
    }
    if (start_line == 0) start_line = line_no_;
    if (t[0] == 'c') continue;
    if (t[0] != 'p') {
      skip_record(line_no_, "expected p line");
      resync_to_token('p');
      return std::nullopt;
    }
    auto fields = split_ws(t);
    long long nn = 0;
    if (fields.size() < 4 || !parse_int(fields[2], nn) ||
        !parse_int(fields[3], mm) || nn < 0 || mm < 0) {
      skip_record(line_no_, "bad p line");
      resync_to_token('p');
      return std::nullopt;
    }
    // Same cap as io.cpp's readers: the header count sizes the builder
    // before any body validation, so an oversized or Vertex-overflowing
    // count must cost one skip, never an abort or a giant allocation.
    if (nn > static_cast<long long>(max_header_vertices())) {
      skip_record(line_no_, "vertex count out of range");
      resync_to_token('p');
      return std::nullopt;
    }
    n = static_cast<Vertex>(nn);
    header_line = line_no_;
    have_header = true;
    break;
  }
  GVC_CHECK(have_header);
  // Body: "e" lines and comments, until the next "p" line, a blank line,
  // or end of stream.
  GraphBuilder builder(n);
  while (get_line(line)) {
    auto t = trim(line);
    if (t.empty()) break;
    if (t[0] == 'c') continue;
    if (t[0] == 'p') {
      push_back(std::move(line));
      break;
    }
    if (t[0] != 'e') {
      skip_record(line_no_, "unknown record type");
      resync_to_token('p');
      return std::nullopt;
    }
    auto fields = split_ws(t);
    long long u = 0, v = 0;
    if (fields.size() < 3 || !parse_int(fields[1], u) ||
        !parse_int(fields[2], v)) {
      skip_record(line_no_, "bad e line");
      resync_to_token('p');
      return std::nullopt;
    }
    if (u < 1 || u > n || v < 1 || v > n) {
      skip_record(line_no_, "edge endpoint out of range");
      resync_to_token('p');
      return std::nullopt;
    }
    builder.add_edge(static_cast<Vertex>(u - 1), static_cast<Vertex>(v - 1));
  }
  if (n == 0) {
    skip_record(header_line, "empty graph record");
    return std::nullopt;
  }
  CorpusRecord rec;
  rec.index = next_index_;
  rec.line = start_line;
  try {
    rec.graph = builder.build();
  } catch (const std::bad_alloc&) {
    // A header within the cap can still declare more vertices than the
    // process can allocate. The body is already consumed, so the stream
    // sits at the next record boundary: one skip, and the stream goes on.
    skip_record(header_line, "vertex count too large to allocate");
    return std::nullopt;
  }
  // In a stream, a body shorter than the header promises almost always
  // means the record was truncated — the strict form of the single-graph
  // reader's edge-count check (satellite 2) is the right default here.
  const long long body_edges = static_cast<long long>(rec.graph.num_edges());
  if (body_edges != mm) {
    skip_record(header_line,
                util::format("edge count disagrees with p line (header says "
                             "%lld, body has %lld)",
                             mm, body_edges));
    return std::nullopt;
  }
  ++next_index_;
  return rec;
}

// --------------------------------------------------------------------------
// Edge-list stream: blank-line-separated "u v" blocks.

std::optional<CorpusRecord> CorpusReader::next_edge_list() {
  std::string line;
  long long start_line = 0;
  std::vector<std::pair<long long, long long>> raw;
  std::map<long long, Vertex> compact;
  while (get_line(line)) {
    auto t = trim(line);
    if (t.empty()) {
      if (start_line != 0) break;  // record separator
      continue;                    // leading blank run
    }
    if (t[0] == '#' || t[0] == '%') continue;
    if (start_line == 0) start_line = line_no_;
    auto fields = split_ws(t);
    long long u = 0, v = 0;
    if (fields.size() < 2 || !parse_int(fields[0], u) ||
        !parse_int(fields[1], v)) {
      skip_record(line_no_, "bad edge list line");
      resync_to_blank();
      return std::nullopt;
    }
    raw.emplace_back(u, v);
    compact.emplace(u, 0);
    compact.emplace(v, 0);
  }
  if (start_line == 0) return std::nullopt;  // only blanks/comments left
  if (compact.empty()) {
    skip_record(start_line, "empty graph record");
    return std::nullopt;
  }
  Vertex next = 0;
  for (auto& [id, mapped] : compact) mapped = next++;
  GraphBuilder builder(next);
  for (auto [u, v] : raw) builder.add_edge(compact.at(u), compact.at(v));
  CorpusRecord rec;
  rec.index = next_index_++;
  rec.line = start_line;
  rec.graph = builder.build();
  return rec;
}

void write_gspan(std::ostream& out, const CsrGraph& g, const std::string& id) {
  out << "t # " << id << '\n';
  for (Vertex v = 0; v < g.num_vertices(); ++v) out << "v " << v << " 0\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (Vertex u : g.neighbors(v))
      if (u > v) out << "e " << v << ' ' << u << " 0\n";
}

}  // namespace gvc::graph
