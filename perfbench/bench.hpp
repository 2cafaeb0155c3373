#pragma once

// perfbench — shared pieces of the three workloads: run options, the
// metric report, the span recorder used by traced runs, instance
// generation with hardness bands, answer checks and small statistics.
//
// The benchmark drives the library only through its public entry points
// (parallel::solve, parallel::solve_batch, graph::CorpusReader,
// service::SolveService, net::Server + net::Client) and reads the records
// those calls return. Every span it records is taken here, around a call
// into a layer; nothing inside src/ is instrumented for it.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "device/device_spec.hpp"
#include "device/virtual_device.hpp"
#include "graph/csr.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace gvc::service {
struct ServiceStats;
}  // namespace gvc::service

namespace perfbench {

// ---------------------------------------------------------------------------
// Run options and the report a workload fills in.
// ---------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;        ///< Chrome-trace JSON path (trace runs)
  bool fingerprint_only = false;  ///< generate inputs, print hash, exit
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// End-to-end metrics (printed by untraced runs).
  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  /// Per-layer metrics (printed by traced runs).
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }

  /// One checked operation; `ok` false counts it as failed and prints
  /// `what` (the first few failures only, so a broken build stays
  /// readable). Safe to call from several threads.
  void check(bool ok, const std::string& what);

  /// A whole-run invariant that is not one operation (e.g. node counts
  /// repeating across passes). Marks the run incorrect without counting an
  /// attempted operation.
  void invariant(bool ok, const std::string& what);

  std::uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
  }
  std::uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
  }
  bool correct() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_ == 0 && invariants_ok_;
  }

  const std::map<std::string, Metric>& e2e_metrics() const { return e2e_; }
  const std::map<std::string, Metric>& layer_metrics() const { return layer_; }

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  mutable std::mutex mutex_;  ///< guards the counters below
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool invariants_ok_ = true;
};

int run_exact_solve(const RunOptions& opts, Report& report);
int run_serve_wire(const RunOptions& opts, Report& report);
int run_corpus_stream(const RunOptions& opts, Report& report);

// ---------------------------------------------------------------------------
// Host sizing: every solve runs on a device of at most 4 resident blocks.
// ---------------------------------------------------------------------------

/// 2 SMs x 2 resident blocks: the host_scaled() device cut into 8 slices,
/// slice 0. Direct solves (exact_solve) run on it.
gvc::device::DeviceSpec bench_device();

/// The services run one worker on half of bench_device(): 1 SM x 2
/// blocks, one FIFO queue, and two cores left for the reactor, the client
/// and the stream reader. (Two workers filled all four cores with block
/// threads; latencies then swung with the host scheduler.)
inline constexpr int kServiceWorkers = 1;
gvc::device::DeviceSpec service_device();

// ---------------------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------------------

/// Independent sub-seed `index` of `seed` (splitmix64 finalizer).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index);

/// A graph family at a fixed size with a hardness band on the Sequential
/// search-tree size. Generation draws candidates until one lands inside
/// the band, so a mix drawn from any seed has about the same total work —
/// the seed changes the graphs, not how hard the workload is. Tree sizes
/// are deterministic, so the band keeps inputs a pure function of the seed.
struct Family {
  std::string name;
  std::function<gvc::graph::CsrGraph(std::uint64_t)> make;
  std::uint64_t min_nodes = 0;
  std::uint64_t max_nodes = ~std::uint64_t{0};
};

/// A generated instance with its Sequential reference answer.
struct Instance {
  std::string family;
  gvc::graph::CsrGraph graph;
  int optimum = -1;
  std::uint64_t seq_nodes = 0;  ///< Sequential tree nodes (exact)
  double seq_seconds = 0.0;     ///< wall time of that reference solve
};

/// Draws one instance of `family` from `seed` (see Family).
Instance draw_instance(const Family& family, std::uint64_t seed);

/// FNV-1a over a graph's CSR arrays, folded into `h`.
std::uint64_t hash_graph(std::uint64_t h, const gvc::graph::CsrGraph& g);
std::uint64_t hash_bytes(std::uint64_t h, const void* data, std::size_t len);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// Prints the one-line input fingerprint of a run.
void print_fingerprint(const RunOptions& opts, std::size_t inputs,
                       std::uint64_t hash);

/// Writes `graphs` as one gspan stream.
std::string to_gspan(const std::vector<const gvc::graph::CsrGraph*>& graphs);

/// CorpusReader alone over `text`, repeated until `min_seconds` have
/// passed; returns {graphs per second, MB per second}.
std::pair<double, double> time_corpus_parse(const std::string& text,
                                            double min_seconds);

// ---------------------------------------------------------------------------
// Answer checks (never abort: a wrong answer is counted, not fatal).
// ---------------------------------------------------------------------------

/// True when `cover` is a duplicate-free vertex cover of `g` with exactly
/// `size` vertices.
bool is_cover(const gvc::graph::CsrGraph& g,
              const std::vector<gvc::graph::Vertex>& cover, int size);

// ---------------------------------------------------------------------------
// Launch records.
// ---------------------------------------------------------------------------

/// Shares of a launch's instrumented block time (Fig. 6 activities).
struct ActivityShares {
  double reduce = 0.0;     ///< the three reduction rules
  double find_max = 0.0;   ///< max-degree search
  double branch = 0.0;     ///< removing the branch vertex / its neighbours
  double terminate = 0.0;  ///< waiting for work
};
ActivityShares activity_shares(const gvc::util::ActivityAccumulator& acc);

/// Max over mean block CPU time of one launch (1 when it ran no blocks).
double block_imbalance(const gvc::device::LaunchStats& launch);

/// Summed block CPU nanoseconds of one launch.
std::uint64_t busy_ns(const gvc::device::LaunchStats& launch);

// ---------------------------------------------------------------------------
// Service records over a window: the difference of two snapshots.
// ---------------------------------------------------------------------------

/// The samples a histogram took between `before` and `after` (two
/// snapshots of the same histogram), as a snapshot of their own.
gvc::obs::Histogram::Snapshot hist_delta(
    const gvc::obs::Histogram::Snapshot& before,
    const gvc::obs::Histogram::Snapshot& after);

/// q-quantile, in ms, of those samples.
double hist_delta_ms(const gvc::obs::Histogram::Snapshot& before,
                     const gvc::obs::Histogram::Snapshot& after, double q);

/// Non-idle PhaseTable nanoseconds summed over every service worker.
std::uint64_t busy_phase_ns(const gvc::service::ServiceStats& stats);

// ---------------------------------------------------------------------------
// Set-up timing: set up several times, report the median.
// ---------------------------------------------------------------------------

inline constexpr int kSetupRepeats = 5;

/// Runs `setup` kSetupRepeats times and returns the median wall seconds.
/// The last call's state is what the workload keeps.
double median_setup_seconds(const std::function<void()>& setup);

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
double peak_rss_mb();
double now_s();

// ---------------------------------------------------------------------------
// Spans. Off by default; a traced run enables them. Each thread appends to
// its own buffer; write_chrome_trace() merges them at exit.
// ---------------------------------------------------------------------------

namespace trace {

void enable(bool on);
bool enabled();

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< request id shared by a request's spans
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int tid = 0;
  int depth = 0;
};

/// RAII span on the calling thread; nests under the thread's open span.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t request_ = 0;
  const char* name_ = nullptr;
};

/// Id of the calling thread's innermost open span (0 if none).
std::uint64_t current();

/// Records a span that did not run as one scope on one thread — a wire
/// request from the time it was due to the time its result arrived. It is
/// drawn on its own `lane` (a slot no other open request holds), so B/E
/// events stay nested per Chrome-trace lane.
void record_async(const char* name, std::uint64_t parent,
                  std::uint64_t request, std::uint64_t start_ns,
                  std::uint64_t end_ns, int lane);

std::uint64_t now_ns();

/// Every recorded span (all threads).
std::vector<SpanRecord> collect();

/// Writes `spans` as Chrome trace-event JSON (B/E pairs sorted by time).
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans);

/// Per-layer self time: span duration minus the part its children cover,
/// summed by layer (the span-name prefix before the first '.'). Prints
/// the table and returns {layer -> self seconds}.
std::map<std::string, double> print_self_time_table(
    const std::vector<SpanRecord>& spans);

}  // namespace trace

}  // namespace perfbench
