#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace gvc::obs {

namespace detail {

int shard_index() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local int index =
      static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<unsigned>(kShards));
  return index;
}

namespace {

// Relaxed CAS-min/max; contention is per-shard so the loop is short.
void atomic_min(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram() {
  for (auto& s : shards_) s = std::make_unique<Shard>();
}

void Histogram::observe_ns(std::uint64_t ns) noexcept {
  Shard& s = *shards_[static_cast<std::size_t>(detail::shard_index())];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(ns, std::memory_order_relaxed);
  detail::atomic_min(s.min, ns);
  detail::atomic_max(s.max, ns);
  s.buckets[static_cast<std::size_t>(bucket_index(ns))].fetch_add(
      1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  std::uint64_t min = ~std::uint64_t{0};
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum_ns += s.sum.load(std::memory_order_relaxed);
    min = std::min(min, s.min.load(std::memory_order_relaxed));
    out.max_ns = std::max(out.max_ns, s.max.load(std::memory_order_relaxed));
    for (int b = 0; b < kBucketCount; ++b)
      out.buckets[static_cast<std::size_t>(b)] +=
          s.buckets[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
  }
  out.min_ns = (out.count == 0) ? 0 : min;
  return out;
}

std::uint64_t Histogram::Snapshot::quantile_ns(double q) const noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile sample under the same nearest-rank convention
  // util::quantile uses (index q*(n-1), rounded to nearest).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count - 1) + 0.5);
  std::uint64_t cum = 0;
  for (int b = 0; b < kBucketCount; ++b) {
    cum += buckets[static_cast<std::size_t>(b)];
    if (cum > rank)
      return std::clamp(bucket_upper_ns(b), min_ns, max_ns);
  }
  return max_ns;
}

void Histogram::Snapshot::merge(const Snapshot& other) noexcept {
  if (other.count == 0) return;
  min_ns = (count == 0) ? other.min_ns : std::min(min_ns, other.min_ns);
  max_ns = std::max(max_ns, other.max_ns);
  count += other.count;
  sum_ns += other.sum_ns;
  for (int b = 0; b < kBucketCount; ++b)
    buckets[static_cast<std::size_t>(b)] +=
        other.buckets[static_cast<std::size_t>(b)];
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  // Immortal: components may unregister callbacks from static-destruction
  // contexts, so the registry must never be destroyed before them.
  static Registry* r = new Registry();
  return *r;
}

std::shared_ptr<Counter> Registry::counter(const std::string& name,
                                           const std::string& help) {
  auto c = std::make_shared<Counter>();
  std::lock_guard<std::mutex> lock(mutex_);
  CounterFamily& fam = counters_[name];
  if (fam.help.empty()) fam.help = help;
  std::erase_if(fam.items, [](const auto& w) { return w.expired(); });
  fam.items.push_back(c);
  return c;
}

std::shared_ptr<Histogram> Registry::histogram(const std::string& name,
                                               const std::string& help) {
  auto h = std::make_shared<Histogram>();
  std::lock_guard<std::mutex> lock(mutex_);
  HistogramFamily& fam = histograms_[name];
  if (fam.help.empty()) fam.help = help;
  std::erase_if(fam.items, [](const auto& w) { return w.expired(); });
  fam.items.push_back(h);
  return h;
}

Registry::CallbackHandle Registry::register_callback(
    const std::string& name, const std::string& help, bool cumulative,
    std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  CallbackFamily& fam = callbacks_[name];
  if (fam.help.empty()) fam.help = help;
  fam.cumulative = cumulative;
  const std::uint64_t id = next_callback_id_++;
  fam.items.emplace_back(id, std::move(fn));
  return CallbackHandle(this, name, id);
}

Registry::CallbackHandle Registry::gauge(const std::string& name,
                                         const std::string& help,
                                         std::function<double()> fn) {
  return register_callback(name, help, /*cumulative=*/false, std::move(fn));
}

Registry::CallbackHandle Registry::counter_fn(const std::string& name,
                                              const std::string& help,
                                              std::function<double()> fn) {
  return register_callback(name, help, /*cumulative=*/true, std::move(fn));
}

void Registry::unregister_callback(const std::string& name,
                                   std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = callbacks_.find(name);
  if (it == callbacks_.end()) return;
  std::erase_if(it->second.items,
                [id](const auto& p) { return p.first == id; });
  if (it->second.items.empty()) callbacks_.erase(it);
}

void Registry::CallbackHandle::reset() {
  if (registry_ != nullptr) {
    registry_->unregister_callback(name_, id_);
    registry_ = nullptr;
  }
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = counters_.find(name); it != counters_.end()) {
    std::uint64_t sum = 0;
    for (const auto& w : it->second.items)
      if (auto c = w.lock()) sum += c->value();
    return sum;
  }
  if (auto it = callbacks_.find(name); it != callbacks_.end()) {
    double sum = 0;
    for (const auto& [id, fn] : it->second.items) sum += fn();
    return sum <= 0 ? 0 : static_cast<std::uint64_t>(sum);
  }
  return 0;
}

Histogram::Snapshot Registry::histogram_snapshot(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Histogram::Snapshot merged;
  if (auto it = histograms_.find(name); it != histograms_.end())
    for (const auto& w : it->second.items)
      if (auto h = w.lock()) merged.merge(h->snapshot());
  return merged;
}

std::string Registry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  char buf[128];

  for (const auto& [name, fam] : counters_) {
    std::uint64_t sum = 0;
    bool live = false;
    for (const auto& w : fam.items)
      if (auto c = w.lock()) {
        sum += c->value();
        live = true;
      }
    if (!live) continue;
    if (!fam.help.empty()) out += "# HELP " + name + " " + fam.help + "\n";
    out += "# TYPE " + name + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name.c_str(), sum);
    out += buf;
  }

  for (const auto& [name, fam] : callbacks_) {
    double sum = 0;
    for (const auto& [id, fn] : fam.items) sum += fn();
    if (!fam.help.empty()) out += "# HELP " + name + " " + fam.help + "\n";
    out += "# TYPE " + name + (fam.cumulative ? " counter\n" : " gauge\n");
    out += name + " " + detail::format_double(sum) + "\n";
  }

  for (const auto& [name, fam] : histograms_) {
    Histogram::Snapshot snap;
    bool live = false;
    for (const auto& w : fam.items)
      if (auto h = w.lock()) {
        snap.merge(h->snapshot());
        live = true;
      }
    if (!live) continue;
    if (!fam.help.empty()) out += "# HELP " + name + " " + fam.help + "\n";
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cum = 0;
    for (int b = 0; b < Histogram::kBucketCount; ++b) {
      const std::uint64_t n = snap.buckets[static_cast<std::size_t>(b)];
      if (n == 0) continue;  // elide empty buckets: 496 lines would be noise
      cum += n;
      std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%s\"} %" PRIu64 "\n",
                    name.c_str(),
                    detail::format_double(
                        static_cast<double>(Histogram::bucket_upper_ns(b)) /
                        1e9)
                        .c_str(),
                    cum);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                  name.c_str(), snap.count);
    out += buf;
    out += name + "_sum " + detail::format_double(snap.sum_seconds()) + "\n";
    std::snprintf(buf, sizeof(buf), "%s_count %" PRIu64 "\n", name.c_str(),
                  snap.count);
    out += buf;
  }
  return out;
}

std::string Registry::json_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n  \"counters\": {";
  char buf[128];
  bool first = true;

  for (const auto& [name, fam] : counters_) {
    std::uint64_t sum = 0;
    bool live = false;
    for (const auto& w : fam.items)
      if (auto c = w.lock()) {
        sum += c->value();
        live = true;
      }
    if (!live) continue;
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %" PRIu64,
                  first ? "" : ",", name.c_str(), sum);
    out += buf;
    first = false;
  }
  for (const auto& [name, fam] : callbacks_) {
    if (!fam.cumulative) continue;
    double sum = 0;
    for (const auto& [id, fn] : fam.items) sum += fn();
    out += std::string(first ? "" : ",") + "\n    \"" + name +
           "\": " + detail::format_double(sum);
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";

  first = true;
  for (const auto& [name, fam] : callbacks_) {
    if (fam.cumulative) continue;
    double sum = 0;
    for (const auto& [id, fn] : fam.items) sum += fn();
    out += std::string(first ? "" : ",") + "\n    \"" + name +
           "\": " + detail::format_double(sum);
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";

  first = true;
  for (const auto& [name, fam] : histograms_) {
    Histogram::Snapshot snap;
    bool live = false;
    for (const auto& w : fam.items)
      if (auto h = w.lock()) {
        snap.merge(h->snapshot());
        live = true;
      }
    if (!live) continue;
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    \"%s\": {\"count\": %" PRIu64 ", \"sum_seconds\": ",
        first ? "" : ",", name.c_str(), snap.count);
    out += buf;
    out += detail::format_double(snap.sum_seconds());
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"p50", 0.50},
          {"p90", 0.90},
          {"p99", 0.99},
          {"p999", 0.999}}) {
      out += std::string(", \"") + label +
             "\": " + detail::format_double(snap.quantile_seconds(q));
    }
    out += ", \"max\": " + detail::format_double(snap.max_seconds()) + "}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace gvc::obs
