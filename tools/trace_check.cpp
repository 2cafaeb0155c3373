// trace_check — validator for the Chrome trace-event JSON that
// obs::trace_write_chrome_json emits (and that gvc_serve --trace-out
// writes). CI runs it on a live capture; it is the executable spec of the
// tracer's export invariants:
//
//   1. The file is well-formed JSON: one object with a "traceEvents" array
//      of event objects (parsed by the bespoke recursive-descent parser
//      below — no external JSON dependency).
//   2. Every event has a string "name" and a one-char "ph"; every
//      non-metadata event also has numeric "ts", "pid" and "tid", and a
//      known phase (B, E, i, or M).
//   3. Timestamps are globally non-decreasing in file order — the exporter
//      sorts — and non-negative (all relative to the session start).
//   4. Per (pid, tid), B/E events form balanced, properly nested spans and
//      every E closes a B of the same name. The tracer guarantees this by
//      construction (E-slot reservation + synthetic closes at export), so
//      a violation here is an exporter bug, not a workload property.
//
//   trace_check FILE [--quiet]
//
// Exit 0 when every check passes; exit 1 with a diagnostic on the first
// violation; exit 64/66 for usage / unreadable file.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace {

// ---- a minimal JSON document model -----------------------------------------

struct Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::vector<std::pair<std::string, Json>>;  // ordered

struct Json {
  // null, bool, number, string, array, object
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  bool is_object() const { return std::holds_alternative<JsonObject>(v); }

  const Json* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, val] : std::get<JsonObject>(v))
      if (k == key) return &val;
    return nullptr;
  }
};

// ---- recursive-descent parser ----------------------------------------------

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  /// Parses the whole input as one JSON value; false on any syntax error,
  /// with a position-annotated message in error().
  bool parse(Json* out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing data after document");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
  std::string error_;

  bool fail(const std::string& what) {
    if (error_.empty()) {
      std::ostringstream os;
      os << what << " at byte " << pos_;
      error_ = os.str();
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word, Json* out, Json value) {
    for (const char* p = word; *p; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p)
        return fail(std::string("bad literal (expected '") + word + "')");
    *out = std::move(value);
    return true;
  }

  bool value(Json* out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': {
        std::string str;
        if (!string_token(&str)) return false;
        out->v = std::move(str);
        return true;
      }
      case 't': return literal("true", out, Json{true});
      case 'f': return literal("false", out, Json{false});
      case 'n': return literal("null", out, Json{nullptr});
      default:  return number(out);
    }
  }

  bool object(Json* out) {
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (consume('}')) {
      out->v = std::move(obj);
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!string_token(&key)) return fail("expected object key");
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      skip_ws();
      Json val;
      if (!value(&val)) return false;
      obj.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      return fail("expected ',' or '}' in object");
    }
    out->v = std::move(obj);
    return true;
  }

  bool array(Json* out) {
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (consume(']')) {
      out->v = std::move(arr);
      return true;
    }
    for (;;) {
      skip_ws();
      Json val;
      if (!value(&val)) return false;
      arr.push_back(std::move(val));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      return fail("expected ',' or ']' in array");
    }
    out->v = std::move(arr);
    return true;
  }

  bool string_token(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"':  out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/':  out->push_back('/'); break;
        case 'b':  out->push_back('\b'); break;
        case 'f':  out->push_back('\f'); break;
        case 'n':  out->push_back('\n'); break;
        case 'r':  out->push_back('\r'); break;
        case 't':  out->push_back('\t'); break;
        case 'u': {
          // Validate the 4 hex digits; re-emit the escape verbatim (the
          // checker compares names byte-wise, and the exporter never
          // \u-escapes ASCII, so fidelity of the decoded code point is
          // irrelevant here).
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_ + static_cast<std::size_t>(i)];
            if (!((h >= '0' && h <= '9') || (h >= 'a' && h <= 'f') ||
                  (h >= 'A' && h <= 'F')))
              return fail("bad hex digit in \\u escape");
          }
          out->append("\\u").append(s_, pos_, 4);
          pos_ += 4;
          break;
        }
        default: return fail("unknown escape character");
      }
    }
    return fail("unterminated string");
  }

  bool number(Json* out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9')
      return fail("malformed number");
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    if (consume('.')) {
      if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9')
        return fail("malformed number (no digits after '.')");
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9')
        return fail("malformed number (empty exponent)");
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    out->v = std::stod(s_.substr(start, pos_ - start));
    return true;
  }
};

// ---- the checks ------------------------------------------------------------

int violation(std::size_t index, const std::string& what) {
  std::fprintf(stderr, "trace_check: event %zu: %s\n", index, what.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::fprintf(stderr, "usage: trace_check FILE [--quiet]\n");
      return 64;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "usage: trace_check FILE [--quiet]\n");
      return 64;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: trace_check FILE [--quiet]\n");
    return 64;
  }

  std::ifstream file(path, std::ios::binary);
  if (!file.good()) {
    std::fprintf(stderr, "trace_check: cannot read '%s'\n", path.c_str());
    return 66;
  }
  std::ostringstream buf;
  buf << file.rdbuf();
  const std::string text = buf.str();

  Json doc;
  Parser parser(text);
  if (!parser.parse(&doc)) {
    std::fprintf(stderr, "trace_check: %s: %s\n", path.c_str(),
                 parser.error().c_str());
    return 1;
  }
  if (!doc.is_object()) {
    std::fprintf(stderr, "trace_check: top level is not an object\n");
    return 1;
  }
  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "trace_check: no \"traceEvents\" array\n");
    return 1;
  }

  // Per-(pid,tid) stack of open span names for the B/E balance check.
  std::map<std::pair<double, double>, std::vector<std::string>> open;
  double last_ts = -1.0;
  std::size_t checked = 0, spans = 0, instants = 0, metadata = 0;

  const JsonArray& arr = std::get<JsonArray>(events->v);
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const Json& e = arr[i];
    if (!e.is_object()) return violation(i, "event is not an object");

    const Json* name = e.find("name");
    if (name == nullptr || !name->is_string())
      return violation(i, "missing string \"name\"");
    const Json* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string() ||
        std::get<std::string>(ph->v).size() != 1)
      return violation(i, "missing one-char \"ph\"");
    const char phase = std::get<std::string>(ph->v)[0];

    if (phase == 'M') {  // metadata (thread_name): no ts required
      ++metadata;
      ++checked;
      continue;
    }
    if (phase != 'B' && phase != 'E' && phase != 'i')
      return violation(i, std::string("unknown phase '") + phase + "'");

    const Json* ts = e.find("ts");
    const Json* pid = e.find("pid");
    const Json* tid = e.find("tid");
    if (ts == nullptr || !ts->is_number())
      return violation(i, "missing numeric \"ts\"");
    if (pid == nullptr || !pid->is_number())
      return violation(i, "missing numeric \"pid\"");
    if (tid == nullptr || !tid->is_number())
      return violation(i, "missing numeric \"tid\"");

    const double t = std::get<double>(ts->v);
    if (t < 0.0) return violation(i, "negative ts");
    if (t < last_ts)
      return violation(
          i, "ts decreases (exporter must emit a sorted stream)");
    last_ts = t;

    auto& stack = open[{std::get<double>(pid->v), std::get<double>(tid->v)}];
    if (phase == 'B') {
      stack.push_back(std::get<std::string>(name->v));
      ++spans;
    } else if (phase == 'E') {
      if (stack.empty()) return violation(i, "'E' with no open 'B'");
      if (stack.back() != std::get<std::string>(name->v))
        return violation(i, "'E' name \"" + std::get<std::string>(name->v) +
                                "\" does not match open 'B' \"" +
                                stack.back() + "\"");
      stack.pop_back();
    } else {
      ++instants;
    }
    ++checked;
  }

  for (const auto& [key, stack] : open)
    if (!stack.empty()) {
      std::fprintf(stderr,
                   "trace_check: tid %.0f: %zu span(s) left open (\"%s\" "
                   "innermost) — exporter must close them synthetically\n",
                   key.second, stack.size(), stack.back().c_str());
      return 1;
    }

  if (!quiet)
    std::printf("trace_check: OK — %zu events (%zu spans, %zu instants, "
                "%zu metadata), ts sorted, all spans balanced\n",
                checked, spans, instants, metadata);
  return 0;
}
