#pragma once

// obs/metrics — the always-on metrics substrate: named counters, callback
// gauges, and log-bucketed latency histograms behind a process-wide
// registry with Prometheus-style text exposition and a JSON dump.
//
// Design constraints, in order:
//
//   (1) Hot-path writes must be wait-free and contention-free. Counter and
//       Histogram shard their state across cache-line-padded per-thread
//       slots (a stable thread-local shard index, assigned round-robin on
//       first touch); add/observe is one relaxed fetch_add on the caller's
//       shard, no CAS loops except the histogram min/max.
//   (2) Per-instance semantics must survive registration. Components like
//       SolveService keep per-instance counters (two services in one test
//       process must not see each other's numbers), so Registry::counter()
//       returns a NEW collector every call and the scrape SUMS all live
//       same-named collectors. ServiceStats stays a view over the
//       instance's own handles; the registry view is the fleet total.
//   (3) No ownership cycles: the registry holds weak_ptrs to collectors
//       and prunes dead ones on scrape. Callback metrics (gauges, and
//       counters that already live behind a component's lock) are
//       registered with an RAII handle whose destruction unregisters —
//       declare handles LAST in the owning class so they die FIRST.
//
// Reads (value(), snapshot(), scrape) are relaxed merges: each is a
// monotone, slightly-stale-but-consistent-enough view, the standard
// sharded-metrics contract. Exact totals are observable at any quiescent
// point (e.g. after SolveService::shutdown()), which is what the stats
// tests rely on.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gvc::obs {

namespace detail {

/// Number of write shards for Counter/Histogram. Threads hash onto shards
/// round-robin; 16 padded slots absorb the service's worker counts without
/// false sharing.
inline constexpr int kShards = 16;

/// Stable per-thread shard index in [0, kShards).
int shard_index() noexcept;

}  // namespace detail

// ---------------------------------------------------------------------------
// Counter — a monotone uint64, sharded for write scalability.
// ---------------------------------------------------------------------------

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[static_cast<std::size_t>(detail::shard_index())].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, detail::kShards> shards_{};
};

// ---------------------------------------------------------------------------
// Histogram — log-bucketed latency histogram over nanoseconds.
//
// Buckets: values 0..7 get exact unit buckets; every octave above is split
// into 8 sub-buckets, so a quantile read from a bucket upper bound is at
// most 12.5% above the true sample value. 496 buckets cover the full u64
// range (0 ns .. ~584 years), so there is no overflow bucket to saturate.
// ---------------------------------------------------------------------------

class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;  // sub-buckets per octave
  static constexpr int kBucketCount = (64 - kSubBits + 1) * kSub;  // 496

  /// Bucket holding `ns`. Exact for ns < 8; log-bucketed above.
  static int bucket_index(std::uint64_t ns) noexcept {
    if (ns < static_cast<std::uint64_t>(kSub)) return static_cast<int>(ns);
    const int msb = 63 - std::countl_zero(ns);
    const int sub =
        static_cast<int>((ns >> (msb - kSubBits)) & (kSub - 1));
    return (msb - kSubBits + 1) * kSub + sub;
  }

  /// Largest value landing in bucket `index` (inclusive upper bound).
  static std::uint64_t bucket_upper_ns(int index) noexcept {
    if (index < kSub) return static_cast<std::uint64_t>(index);
    const int octave = index >> kSubBits;         // >= 1
    const int msb = octave + kSubBits - 1;        // 3..63
    const std::uint64_t sub = static_cast<std::uint64_t>(index & (kSub - 1));
    const std::uint64_t width = std::uint64_t{1} << (msb - kSubBits);
    return (std::uint64_t{1} << msb) + (sub + 1) * width - 1;
  }

  Histogram();

  void observe_ns(std::uint64_t ns) noexcept;
  void observe_seconds(double s) noexcept {
    observe_ns(s <= 0.0 ? 0 : static_cast<std::uint64_t>(s * 1e9));
  }

  /// Merged point-in-time view; all quantile math happens on the snapshot
  /// so one scrape pays the shard merge once.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    std::array<std::uint64_t, kBucketCount> buckets{};

    /// Upper bound of the bucket holding the q-quantile sample, clamped to
    /// the observed [min, max]. Returns 0 on an empty snapshot (no abort:
    /// scrapes must not die on idle histograms, unlike util::quantile).
    std::uint64_t quantile_ns(double q) const noexcept;
    double quantile_seconds(double q) const noexcept {
      return static_cast<double>(quantile_ns(q)) / 1e9;
    }
    double sum_seconds() const noexcept {
      return static_cast<double>(sum_ns) / 1e9;
    }
    double mean_seconds() const noexcept {
      return count == 0 ? 0.0 : sum_seconds() / static_cast<double>(count);
    }
    double max_seconds() const noexcept {
      return static_cast<double>(max_ns) / 1e9;
    }
    void merge(const Snapshot& other) noexcept;
  };

  Snapshot snapshot() const;

 private:
  struct Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
  };
  // Shards are heap-allocated (each is ~4 KB) so an idle Histogram member
  // doesn't bloat its owner; the array of pointers itself is immutable
  // after construction.
  std::array<std::unique_ptr<Shard>, detail::kShards> shards_;
};

// ---------------------------------------------------------------------------
// Registry — process-wide name → collector families.
// ---------------------------------------------------------------------------

class Registry {
 public:
  /// The process-wide registry every component registers into.
  static Registry& global();

  /// Create a NEW counter/histogram instance under `name`. Same-named
  /// instances form a family; the scrape output is the family sum.
  std::shared_ptr<Counter> counter(const std::string& name,
                                   const std::string& help = "");
  std::shared_ptr<Histogram> histogram(const std::string& name,
                                       const std::string& help = "");

  /// RAII registration of a callback metric; destruction unregisters.
  /// Movable, not copyable.
  class CallbackHandle {
   public:
    CallbackHandle() = default;
    CallbackHandle(CallbackHandle&& o) noexcept
        : registry_(o.registry_), name_(std::move(o.name_)), id_(o.id_) {
      o.registry_ = nullptr;
    }
    CallbackHandle& operator=(CallbackHandle&& o) noexcept {
      if (this != &o) {
        reset();
        registry_ = o.registry_;
        name_ = std::move(o.name_);
        id_ = o.id_;
        o.registry_ = nullptr;
      }
      return *this;
    }
    ~CallbackHandle() { reset(); }
    void reset();

   private:
    friend class Registry;
    CallbackHandle(Registry* r, std::string name, std::uint64_t id)
        : registry_(r), name_(std::move(name)), id_(id) {}
    Registry* registry_ = nullptr;
    std::string name_;
    std::uint64_t id_ = 0;
  };

  /// Point-in-time gauge backed by a callback. The callback runs under the
  /// registry mutex during a scrape; it may take the owning component's
  /// lock, so components must never scrape while holding that lock.
  [[nodiscard]] CallbackHandle gauge(const std::string& name,
                                     const std::string& help,
                                     std::function<double()> fn);

  /// Cumulative counter backed by a callback — for components whose
  /// counters already live behind their own mutex (JobQueue, ResultCache).
  [[nodiscard]] CallbackHandle counter_fn(const std::string& name,
                                          const std::string& help,
                                          std::function<double()> fn);

  /// Prometheus text exposition format (families sorted by name).
  std::string prometheus_text() const;

  /// One JSON object: {"counters":{..},"gauges":{..},"histograms":{..}}.
  std::string json_text() const;

  /// Family sum for tests and tools; 0 if the name is unknown.
  std::uint64_t counter_value(const std::string& name) const;

  /// Merged snapshot of a histogram family for tests and tools; empty if
  /// the name is unknown.
  Histogram::Snapshot histogram_snapshot(const std::string& name) const;

 private:
  struct CounterFamily {
    std::string help;
    std::vector<std::weak_ptr<Counter>> items;
  };
  struct HistogramFamily {
    std::string help;
    std::vector<std::weak_ptr<Histogram>> items;
  };
  struct CallbackFamily {
    std::string help;
    bool cumulative = false;  // true => exposed as TYPE counter
    std::vector<std::pair<std::uint64_t, std::function<double()>>> items;
  };

  CallbackHandle register_callback(const std::string& name,
                                   const std::string& help, bool cumulative,
                                   std::function<double()> fn);
  void unregister_callback(const std::string& name, std::uint64_t id);

  mutable std::mutex mutex_;
  std::map<std::string, CounterFamily> counters_;
  std::map<std::string, HistogramFamily> histograms_;
  std::map<std::string, CallbackFamily> callbacks_;
  std::uint64_t next_callback_id_ = 1;
};

}  // namespace gvc::obs
