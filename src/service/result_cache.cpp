#include "service/result_cache.hpp"

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace gvc::service {

ResultCache::ResultCache(std::size_t capacity, double min_cache_seconds)
    : capacity_(capacity), min_cache_seconds_(min_cache_seconds) {
  GVC_CHECK_MSG(capacity_ > 0, "ResultCache capacity must be positive");
  GVC_CHECK_MSG(min_cache_seconds_ >= 0.0,
                "min_cache_seconds must be non-negative");

  // Expose the existing (mutex-guarded) stats through the registry; the
  // scrape sums every live cache in the process. Cumulative counts go out
  // as counters, the entry populations as gauges.
  obs::Registry& reg = obs::Registry::global();
  auto counter = [&](const char* name, const char* help,
                     std::uint64_t Stats::* field) {
    metric_handles_.push_back(reg.counter_fn(name, help, [this, field] {
      std::lock_guard<std::mutex> lock(mutex_);
      return static_cast<double>(stats_.*field);
    }));
  };
  counter("gvc_cache_hits_total", "completed-entry cache hits",
          &Stats::hits);
  counter("gvc_cache_misses_total", "cache probes that found nothing",
          &Stats::misses);
  counter("gvc_cache_coalesced_total", "submissions coalesced in flight",
          &Stats::inflight_hits);
  counter("gvc_cache_bypasses_total", "in-flight keys solved independently",
          &Stats::bypasses);
  counter("gvc_cache_inserts_total", "completed records stored",
          &Stats::inserts);
  counter("gvc_cache_refused_total", "records refused at admission",
          &Stats::refused);
  counter("gvc_cache_evictions_total", "completed entries LRU-evicted",
          &Stats::evictions);
  metric_handles_.push_back(
      reg.gauge("gvc_cache_completed_entries", "completed entries held",
                [this] {
                  std::lock_guard<std::mutex> lock(mutex_);
                  return static_cast<double>(lru_.size());
                }));
  metric_handles_.push_back(
      reg.gauge("gvc_cache_inflight_entries", "pinned in-flight keys",
                [this] {
                  std::lock_guard<std::mutex> lock(mutex_);
                  return static_cast<double>(map_.size() - lru_.size());
                }));
}

void ResultCache::touch(Node& node) {
  lru_.splice(lru_.begin(), lru_, node.lru_it);
}

void ResultCache::evict_down_to_capacity() {
  while (lru_.size() > capacity_) {
    const CacheKey& victim = lru_.back();
    map_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

ResultCache::Outcome ResultCache::acquire(
    const CacheKey& key, const std::shared_ptr<JobState>& fresh,
    parallel::ParallelResult* result_out,
    std::shared_ptr<JobState>* owner_out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    Node& node = it->second;
    if (node.ready) {
      ++stats_.hits;
      touch(node);
      if (result_out) *result_out = node.result;
      obs::trace_instant(obs::TraceCat::kCache, "cache_hit");
      return Outcome::kHit;
    }
    if (is_terminal(node.inflight_owner->status())) {
      // The owner died while queued (cancelled/expired) and has not been
      // swept yet: adopt the key so this submission re-solves.
      node.inflight_owner = fresh;
      ++stats_.misses;
      return Outcome::kMiss;
    }
    if (!same_solve_budget(fresh->spec(), node.inflight_owner->spec())) {
      // Same result identity, different budgets: the in-flight solve runs
      // under the owner's control, so its answer may be truncated in ways
      // this caller did not ask for. Run independently.
      ++stats_.bypasses;
      obs::trace_instant(obs::TraceCat::kCache, "cache_bypass");
      return Outcome::kBypass;
    }
    ++stats_.inflight_hits;
    if (owner_out) *owner_out = node.inflight_owner;
    obs::trace_instant(obs::TraceCat::kCache, "cache_coalesce");
    return Outcome::kInflight;
  }
  ++stats_.misses;
  obs::trace_instant(obs::TraceCat::kCache, "cache_miss");
  Node node;
  node.ready = false;
  node.inflight_owner = fresh;
  map_.emplace(key, std::move(node));
  return Outcome::kMiss;
}

void ResultCache::complete(const CacheKey& key,
                           const parallel::ParallelResult& result,
                           const JobState* owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it != map_.end() && it->second.ready) {
    // Already stored (a bypass job finished first): keep the first result
    // — the coalescing contract promises one canonical record per key —
    // but refresh recency.
    touch(it->second);
    return;
  }
  // Admission: limit/deadline/cancel outcomes are load-dependent, not
  // canonical, and sub-threshold solves are cheaper to redo than the
  // eviction they'd cause. Refusal == abandon for the refusing job's OWN
  // registration (so the next identical submission re-solves); a bypass
  // job's refusal leaves the owner's live registration alone.
  if (!vc::is_complete(result.outcome) ||
      result.seconds < min_cache_seconds_) {
    ++stats_.refused;
    obs::trace_instant(obs::TraceCat::kCache, "cache_refuse");
    if (it != map_.end() && it->second.inflight_owner.get() == owner)
      map_.erase(it);
    return;
  }
  if (it == map_.end())
    it = map_.emplace(key, Node{}).first;
  Node& node = it->second;
  node.inflight_owner.reset();
  node.result = result;
  node.ready = true;
  lru_.push_front(key);
  node.lru_it = lru_.begin();
  ++stats_.inserts;
  obs::trace_instant(obs::TraceCat::kCache, "cache_store");
  evict_down_to_capacity();
}

void ResultCache::abandon(const CacheKey& key, const JobState* owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end() || it->second.ready ||
      it->second.inflight_owner.get() != owner)
    return;
  map_.erase(it);
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.completed_entries = lru_.size();
  s.inflight_entries = map_.size() - lru_.size();
  return s;
}

}  // namespace gvc::service
