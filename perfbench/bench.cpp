#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "graph/corpus.hpp"
#include "parallel/solver.hpp"
#include "service/solve_service.hpp"

namespace perfbench {

using gvc::graph::CsrGraph;
using gvc::graph::Vertex;

// ---- report -----------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 5) std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::invariant(bool ok, const std::string& what) {
  if (ok) return;
  std::lock_guard<std::mutex> lock(mutex_);
  invariants_ok_ = false;
  std::printf("INVARIANT FAILED: %s\n", what.c_str());
}

// ---- host sizing --------------------------------------------------------------

gvc::device::DeviceSpec bench_device() {
  return gvc::service::SolveService::partition_device(
      gvc::device::DeviceSpec::host_scaled(), 8)[0];
}

gvc::device::DeviceSpec service_device() {
  return gvc::service::SolveService::partition_device(bench_device(), 2)[0];
}

// ---- inputs -------------------------------------------------------------------

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Instance draw_instance(const Family& family, std::uint64_t seed) {
  // A family whose band is too narrow for its generator still yields a
  // graph: after kMaxDraws the last candidate is kept (deterministically).
  constexpr int kMaxDraws = 40;
  gvc::parallel::ParallelConfig config;
  Instance inst;
  inst.family = family.name;
  for (int draw = 0; draw < kMaxDraws; ++draw) {
    inst.graph = family.make(sub_seed(seed, static_cast<std::uint64_t>(draw)));
    const gvc::parallel::ParallelResult r = gvc::parallel::solve(
        inst.graph, gvc::parallel::Method::kSequential, config);
    inst.optimum = r.best_size;
    inst.seq_nodes = r.tree_nodes;
    inst.seq_seconds = r.seconds;
    if (r.tree_nodes >= family.min_nodes && r.tree_nodes <= family.max_nodes)
      break;
  }
  return inst;
}

std::uint64_t hash_bytes(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_graph(std::uint64_t h, const CsrGraph& g) {
  const auto& off = g.offsets();
  const auto& adj = g.adjacency();
  h = hash_bytes(h, off.data(), off.size() * sizeof(off[0]));
  return hash_bytes(h, adj.data(), adj.size() * sizeof(adj[0]));
}

void print_fingerprint(const RunOptions& opts, std::size_t inputs,
                       std::uint64_t hash) {
  std::printf("fingerprint workload=%s seed=%llu inputs=%zu hash=%016llx\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              inputs, static_cast<unsigned long long>(hash));
}

std::string to_gspan(const std::vector<const CsrGraph*>& graphs) {
  std::ostringstream out;
  for (std::size_t i = 0; i < graphs.size(); ++i)
    gvc::graph::write_gspan(out, *graphs[i], std::to_string(i));
  return out.str();
}

std::pair<double, double> time_corpus_parse(const std::string& text,
                                            double min_seconds) {
  std::uint64_t graphs = 0, bytes = 0;
  const double start = now_s();
  double elapsed = 0.0;
  do {
    trace::Span span("graph.corpus_read");
    std::istringstream in(text);
    gvc::graph::CorpusReader reader(in);
    while (auto rec = reader.next()) ++graphs;
    bytes += text.size();
    elapsed = now_s() - start;
  } while (elapsed < min_seconds);
  return {static_cast<double>(graphs) / elapsed,
          static_cast<double>(bytes) / 1e6 / elapsed};
}

// ---- checks -------------------------------------------------------------------

bool is_cover(const CsrGraph& g, const std::vector<Vertex>& cover, int size) {
  if (size < 0 || cover.size() != static_cast<std::size_t>(size)) return false;
  const Vertex n = g.num_vertices();
  std::vector<char> in(static_cast<std::size_t>(n), 0);
  for (Vertex v : cover) {
    if (v < 0 || v >= n || in[static_cast<std::size_t>(v)]) return false;
    in[static_cast<std::size_t>(v)] = 1;
  }
  for (Vertex u = 0; u < n; ++u) {
    if (in[static_cast<std::size_t>(u)]) continue;
    for (Vertex w : g.neighbors(u))
      if (!in[static_cast<std::size_t>(w)]) return false;
  }
  return true;
}

// ---- launch records -----------------------------------------------------------

ActivityShares activity_shares(const gvc::util::ActivityAccumulator& acc) {
  using gvc::util::Activity;
  ActivityShares s;
  const double total = static_cast<double>(acc.total_ns());
  if (total <= 0.0) return s;
  const auto ns = [&](Activity a) { return static_cast<double>(acc.ns(a)); };
  s.reduce = (ns(Activity::kDegreeOneRule) +
              ns(Activity::kDegreeTwoTriangleRule) +
              ns(Activity::kHighDegreeRule)) / total;
  s.find_max = ns(Activity::kFindMaxDegree) / total;
  s.branch =
      (ns(Activity::kRemoveMaxVertex) + ns(Activity::kRemoveNeighbors)) / total;
  s.terminate = ns(Activity::kTerminate) / total;
  return s;
}

double block_imbalance(const gvc::device::LaunchStats& launch) {
  if (launch.blocks.empty()) return 1.0;
  double max = 0.0, sum = 0.0;
  for (const auto& b : launch.blocks) {
    max = std::max(max, static_cast<double>(b.cpu_ns));
    sum += static_cast<double>(b.cpu_ns);
  }
  const double mean = sum / static_cast<double>(launch.blocks.size());
  return mean > 0.0 ? max / mean : 1.0;
}

std::uint64_t busy_ns(const gvc::device::LaunchStats& launch) {
  std::uint64_t ns = 0;
  for (const auto& b : launch.blocks) ns += b.cpu_ns;
  return ns;
}

// ---- service records ----------------------------------------------------------

gvc::obs::Histogram::Snapshot hist_delta(
    const gvc::obs::Histogram::Snapshot& before,
    const gvc::obs::Histogram::Snapshot& after) {
  gvc::obs::Histogram::Snapshot d = after;
  d.count -= before.count;
  d.sum_ns -= before.sum_ns;
  d.min_ns = 0;
  for (std::size_t i = 0; i < d.buckets.size(); ++i)
    d.buckets[i] -= before.buckets[i];
  return d;
}

double hist_delta_ms(const gvc::obs::Histogram::Snapshot& before,
                     const gvc::obs::Histogram::Snapshot& after, double q) {
  return static_cast<double>(hist_delta(before, after).quantile_ns(q)) / 1e6;
}

std::uint64_t busy_phase_ns(const gvc::service::ServiceStats& stats) {
  const auto idle = static_cast<std::size_t>(gvc::obs::Phase::kIdle);
  std::uint64_t ns = 0;
  for (const auto& w : stats.worker_phases) ns += w.total_ns() - w.ns[idle];
  return ns;
}

// ---- set-up timing ------------------------------------------------------------

double median_setup_seconds(const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    setup();
    times.push_back(now_s() - t0);
  }
  return quantile(times, 0.5);
}

// ---- statistics ---------------------------------------------------------------

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double now_s() { return static_cast<double>(trace::now_ns()) * 1e-9; }

// ---- spans --------------------------------------------------------------------

namespace trace {
namespace {

struct ThreadBuffer {
  int tid = 0;
  std::vector<std::uint64_t> open;  ///< ids of open spans, innermost last
  std::vector<SpanRecord> done;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<SpanRecord> async;
  int next_tid = 1;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

ThreadBuffer& buffer() {
  // Buffers live in the registry until exit, so a span recorded by a
  // thread that has since ended is still collected.
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = r.buffers.back().get();
    buf->tid = r.next_tid++;
  }
  return *buf;
}

/// Async request lanes are drawn above every thread id.
constexpr int kLaneTidBase = 1000;

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Span::Span(const char* name, std::uint64_t request) {
  if (!enabled()) return;
  name_ = name;
  request_ = request;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  buffer().open.push_back(id_);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::uint64_t end = now_ns();
  ThreadBuffer& buf = buffer();
  buf.open.pop_back();
  SpanRecord rec;
  rec.name = name_;
  rec.id = id_;
  rec.parent = buf.open.empty() ? 0 : buf.open.back();
  rec.request = request_;
  rec.start_ns = start_ns_;
  rec.end_ns = std::max(end, start_ns_ + 1);  // no zero-length spans
  rec.tid = buf.tid;
  rec.depth = static_cast<int>(buf.open.size());
  buf.done.push_back(std::move(rec));
}

std::uint64_t current() {
  if (!enabled()) return 0;
  const ThreadBuffer& buf = buffer();
  return buf.open.empty() ? 0 : buf.open.back();
}

void record_async(const char* name, std::uint64_t parent,
                  std::uint64_t request, std::uint64_t start_ns,
                  std::uint64_t end_ns, int lane) {
  if (!enabled()) return;
  SpanRecord rec;
  rec.name = name;
  rec.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec.parent = parent;
  rec.request = request;
  rec.start_ns = start_ns;
  rec.end_ns = std::max(end_ns, start_ns + 1);
  rec.tid = kLaneTidBase + lane;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.async.push_back(std::move(rec));
}

std::vector<SpanRecord> collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<SpanRecord> all = r.async;
  for (const auto& buf : r.buffers)
    all.insert(all.end(), buf->done.begin(), buf->done.end());
  return all;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  struct Event {
    std::uint64_t ts;
    int tid;
    bool begin;
    int depth;
    const SpanRecord* span;
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& s : spans) {
    origin = std::min(origin, s.start_ns);
    events.push_back({s.start_ns, s.tid, true, s.depth, &s});
    events.push_back({s.end_ns, s.tid, false, s.depth, &s});
  }
  // Within a lane: at equal times a closing span ends before the next one
  // opens, parents open before their children, children close first.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.begin != b.begin) return !a.begin;
    return a.begin ? a.depth < b.depth : a.depth > b.depth;
  });
  // Then merge the lanes by time, keeping each lane's order for ties.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });

  std::ofstream out(path);
  if (!out.good()) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char ts[64];
  for (const Event& e : events) {
    std::snprintf(ts, sizeof(ts), "%.3f",
                  static_cast<double>(e.ts - origin) / 1e3);
    out << (first ? "" : ",\n") << "{\"name\":\"" << e.span->name
        << "\",\"ph\":\"" << (e.begin ? 'B' : 'E') << "\",\"ts\":" << ts
        << ",\"pid\":1,\"tid\":" << e.tid;
    if (e.begin)
      out << ",\"args\":{\"id\":" << e.span->id
          << ",\"parent\":" << e.span->parent
          << ",\"request\":" << e.span->request << "}";
    out << "}";
    first = false;
  }
  out << "\n]}\n";
  return out.good();
}

std::map<std::string, double> print_self_time_table(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const auto& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<std::string, double> self_s;
  std::map<std::string, std::uint64_t> count;
  for (const auto& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    if (auto it = children.find(s.id); it != children.end())
      for (const SpanRecord* c : it->second)
        iv.emplace_back(std::max(c->start_ns, s.start_ns),
                        std::min(c->end_ns, s.end_ns));
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : iv) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self_s[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
    ++count[layer];
  }
  double total = 0.0;
  for (const auto& [layer, s] : self_s) total += s;
  std::printf("per-layer self time (traced run; span minus child cover)\n");
  std::printf("  %-10s %8s %12s %8s\n", "layer", "spans", "self_s", "share");
  for (const auto& [layer, s] : self_s)
    std::printf("  %-10s %8llu %12.6f %7.2f%%\n", layer.c_str(),
                static_cast<unsigned long long>(count[layer]), s,
                total > 0 ? 100.0 * s / total : 0.0);
  return self_s;
}

}  // namespace trace

}  // namespace perfbench
