#pragma once

// SolveService — the concurrent multi-instance front-end over the five
// solvers. Where the Hybrid kernel keeps one search tree's blocks saturated
// on one device, the service keeps one machine saturated across many solve
// requests:
//
//  * submit() hashes the request into a canonical CacheKey and consults the
//    ResultCache: a completed identical request is served instantly, an
//    identical request already in flight coalesces (one solve, many
//    tickets), and a genuinely new request is admitted to a worker shard.
//
//  * Jobs are pinned to workers by key hash, so a request always lands on
//    the same shard and each shard's JobQueue provides priority/deadline
//    ordering plus bounded backpressure independently.
//
//  * Each worker thread owns a DeviceSpec slice — the machine's virtual
//    device is partitioned SM-wise across workers, mirroring how a
//    multi-tenant GPU is space-shared — and a SolveWorkspace reused across
//    jobs, so steady-state job execution performs no cold-start scratch
//    allocation.
//
//  * wait()/try_poll() deliver the exact ParallelResult record a direct
//    parallel::solve() call would produce (the solve IS a direct call, made
//    re-entrant by the workspace refactor); cached and coalesced tickets
//    return the record of the first completed identical submission.
//
//  * With num_devices > 1 the machine is first split into device slices
//    (virtual GPUs), workers are pinned to (device, shard) pairs, and two
//    work-conserving steal tiers keep a skewed load from stranding a
//    device: an idle worker first drains queued jobs from sibling shards
//    on ITS OWN device (tier 1 — the stolen job executes the config it was
//    pinned at admission, so the cache key still describes the run), and a
//    starved DEVICE imports branch-tree nodes from solves running on other
//    devices through a worklist::DeviceBroker (tier 2). Both tiers are off
//    by default (StealTiers::kNone), in which case behavior is identical
//    to the single-device service.
//
// Thread safety: every public method may be called from any thread.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "device/device_spec.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "parallel/solver.hpp"
#include "service/job.hpp"
#include "service/job_queue.hpp"
#include "service/result_cache.hpp"
#include "worklist/device_broker.hpp"

namespace gvc::service {

/// Which steal tiers an idle worker escalates through before sleeping.
enum class StealTiers {
  kNone,          ///< no stealing: each worker blocks on its own shard
  kJobs,          ///< tier 1 only: steal queued jobs from sibling shards
                  ///< on the same device
  kJobsAndNodes,  ///< tiers 1+2: also import migrated subtree nodes from
                  ///< solves running on OTHER devices (DeviceBroker)
};

const char* steal_tiers_name(StealTiers t);
std::optional<StealTiers> try_parse_steal_tiers(const std::string& name);

struct ServiceOptions {
  /// Worker threads (= queue shards = worker device slices). Clamped
  /// to >= 1, and to >= num_devices (every device gets a worker).
  int num_workers = 4;

  /// Virtual devices the machine is split into. 1 keeps the flat layout
  /// (workers slice `device` directly); N > 1 first carves `device` into N
  /// device slices, then carves each device slice across its workers.
  /// Workers map to devices contiguously (worker w's device is fixed at
  /// construction; see device_of_worker()). Clamped to [1, num_workers].
  int num_devices = 1;

  /// Work-conserving stealing for idle workers. kNone reproduces the
  /// pre-sharding service exactly (blocking per-shard pops, no broker).
  StealTiers steal_tiers = StealTiers::kNone;

  /// Per-shard JobQueue capacity.
  std::size_t queue_capacity = 256;

  /// What a submit against a full shard does: block the submitter
  /// (backpressure) or reject the job.
  JobQueue::FullPolicy full_policy = JobQueue::FullPolicy::kBlock;

  /// Completed-entry capacity of the service's ResultCache.
  std::size_t cache_capacity = 1024;

  /// Cost-aware cache admission: solves cheaper than this many seconds are
  /// not stored, so floods of tiny instances cannot evict expensive
  /// records. 0 keeps the old store-everything behavior.
  double min_cache_seconds = 0.0;

  /// The machine's virtual device, partitioned across workers when
  /// `partition_device` is set.
  device::DeviceSpec device = device::DeviceSpec::host_scaled();

  /// Graphs per batch job for submit_batch(): each chunk of this many
  /// corpus records becomes ONE queued job (one solve_batch launch). Small
  /// chunks spread a corpus across workers; large chunks amortize launch
  /// overhead harder. Clamped to >= 1.
  std::size_t corpus_chunk_size = 256;

  /// true: the submitted config's device is replaced at admission by the
  /// target worker's SM slice of `device` (space-sharing; jobs on
  /// different workers don't oversubscribe the host). The cache key is
  /// computed from the config as executed, slice included, so cached
  /// records always describe the device they ran on. false: every job
  /// runs with the device spec it was submitted with — required when
  /// results must be bit-identical to direct solve() calls of that
  /// config.
  bool partition_device = true;
};

// A point-in-time view over the service's registry collectors. The scalar
// counters below read the service's OWN obs::Counter handles — two
// services in one process see only their own numbers here, while
// obs::Registry::global() scrapes the per-name fleet sums.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< solved by a worker
  std::uint64_t cache_hits = 0;  ///< served instantly from the cache
  std::uint64_t coalesced = 0;   ///< attached to an in-flight identical job
  std::uint64_t rejected = 0;    ///< refused at admission
  std::uint64_t expired = 0;     ///< deadline fired: at admission, at
                                 ///< dequeue, or mid-solve (kDeadline)
  std::uint64_t cancelled = 0;   ///< JobTicket::cancel(): queued or
                                 ///< mid-solve (kCancelled) — counted
                                 ///< separately from expiries
  // Corpus/batch accounting (the gvc_corpus_* families). Graphs are the
  // unit here, not jobs: one batch job covers a whole chunk.
  std::uint64_t corpus_batches = 0;          ///< chunk jobs admitted
  std::uint64_t corpus_graphs_submitted = 0; ///< well-formed graphs admitted
  std::uint64_t corpus_graphs_solved = 0;    ///< per-graph records delivered
  std::uint64_t corpus_graphs_skipped = 0;   ///< malformed records skipped
                                             ///< by the corpus reader

  // Steal tiers (all zero under StealTiers::kNone).
  std::uint64_t steal_jobs = 0;   ///< tier 1: queued jobs taken from a
                                  ///< sibling shard on the same device
  std::uint64_t steal_nodes = 0;  ///< tier 2: migrated subtree nodes this
                                  ///< service's workers executed
  worklist::DeviceBroker::Stats broker;  ///< tier-2 conservation ledger

  ResultCache::Stats cache;
  std::vector<JobQueue::Stats> queues;           ///< one per shard
  std::vector<std::uint64_t> jobs_per_worker;    ///< solves executed

  /// Latency histograms (log-bucketed, bounded memory — replacing the old
  /// grow-forever sample vectors). One sample lands in `e2e_latency` per
  /// non-coalesced submission at its terminal transition; `queue_wait`
  /// gets one per job that entered a queue; `solve_latency` one per solve
  /// a worker actually ran.
  obs::Histogram::Snapshot queue_wait;
  obs::Histogram::Snapshot solve_latency;
  obs::Histogram::Snapshot e2e_latency;  ///< true submit→terminal wall time

  /// Per-worker cumulative phase split (the live Fig. 6 breakdown).
  std::vector<obs::PhaseTable::Snapshot> worker_phases;
};

/// How submit_batch() should run each graph of a corpus.
struct CorpusOptions {
  /// Solver config applied to every graph. Batch blocks run the Sequential
  /// engine (the grid model's one-block-per-search applied per instance),
  /// so the method is implicit; device/branching/reduction fields apply.
  parallel::ParallelConfig config;

  /// Per-GRAPH budgets (each block launches its own bounded search).
  vc::Limits limits;

  int priority = 0;

  /// Per-JOB deadline in seconds from its submission; a chunk whose
  /// deadline fires is dropped or stopped whole. 0 = none.
  double deadline_s = 0.0;
};

/// What submit_batch() returns: one ticket per chunk job plus the corpus
/// reader's skip diagnostics. wait() each ticket, then read per-graph
/// records from ticket.state->batch_results() (parallel to the chunk's
/// spec().batch records).
struct CorpusSubmission {
  std::vector<JobTicket> tickets;
  std::vector<graph::CorpusSkip> skips;
  long long graphs_submitted = 0;
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions options);

  /// Drains admitted jobs, then joins the workers (shutdown()).
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admits one job. Never blocks on the solve itself; blocks on a full
  /// shard only under FullPolicy::kBlock. The returned ticket is always
  /// valid — rejected submissions carry a terminal kRejected state.
  JobTicket submit(JobSpec spec);

  /// The device submit(spec) would run the job on (its home worker's slice
  /// under partition_device), for checking a request before submitting it.
  const device::DeviceSpec& executed_device(const JobSpec& spec) const;

  /// Admits a batch in order; returns one ticket per spec.
  std::vector<JobTicket> submit_all(std::vector<JobSpec> specs);

  /// Drains a corpus stream into batch jobs: reads records one at a time
  /// (never materializing the corpus), packs every
  /// ServiceOptions::corpus_chunk_size well-formed graphs into one queued
  /// job, and lets the shard queues' kBlock backpressure pace the read —
  /// a slow solver throttles the reader instead of ballooning memory.
  /// Malformed records are the reader's problem (skipped and counted, per
  /// graph/corpus.hpp); their diagnostics are returned and the
  /// gvc_corpus_graphs_skipped_total counter is bumped. Batch jobs bypass
  /// the ResultCache and shard round-robin.
  CorpusSubmission submit_batch(graph::CorpusReader& stream,
                                const CorpusOptions& options = {});

  /// Blocks until the ticket's job is terminal; returns its result record.
  /// For jobs dropped without a solve (kExpired at admission/dequeue,
  /// kCancelled while queued, kRejected) the record is a coverless
  /// placeholder whose outcome names the cause (kDeadline / kCancelled).
  /// A job stopped mid-solve carries the real partial record — for MVC a
  /// valid best-so-far cover with Outcome::kDeadline or kCancelled.
  const parallel::ParallelResult& wait(const JobTicket& ticket) const;

  /// Non-blocking: the result if terminal, nullptr otherwise.
  const parallel::ParallelResult* try_poll(const JobTicket& ticket) const;

  /// Stops admission, drains every shard, joins the workers. Idempotent;
  /// called by the destructor.
  void shutdown();

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// The DeviceSpec slice worker `w` solves on.
  const device::DeviceSpec& worker_device(int w) const {
    return worker_devices_[static_cast<std::size_t>(w)];
  }

  int num_devices() const { return options_.num_devices; }

  /// The device worker `w` is pinned to (its tier-1 steal domain).
  int device_of_worker(int w) const {
    return worker_device_[static_cast<std::size_t>(w)];
  }

  /// The shard a key routes to under `num_shards` queues — exposed so
  /// tests and benches can construct shard-skewed loads deliberately.
  static int home_shard(const CacheKey& key, int num_shards) {
    return static_cast<int>(CacheKeyHash{}(key) %
                            static_cast<std::size_t>(num_shards));
  }

  /// Tier-2 broker (null unless steal_tiers == kJobsAndNodes with more
  /// than one device). Exposed for conservation checks in tests.
  const worklist::DeviceBroker* broker() const { return broker_.get(); }

  ServiceStats stats() const;

  /// Live per-worker phase profile (readable while workers run; relaxed
  /// monotone counters — the progress monitors poll this).
  const obs::PhaseTable& phases() const { return phase_table_; }

  /// SM-wise partition of `device` into `workers` slices (exposed for
  /// tests): each slice keeps the per-SM ratios and splits num_sms and
  /// global memory as evenly as integer division allows, every slice
  /// getting at least one SM.
  static std::vector<device::DeviceSpec> partition_device(
      const device::DeviceSpec& device, int workers);

 private:
  ServiceOptions options_;
  /// Per-worker phase profile; sized from the clamped worker count.
  obs::PhaseTable phase_table_;
  ResultCache cache_;
  std::vector<device::DeviceSpec> worker_devices_;  ///< one per worker
  std::vector<int> worker_device_;                  ///< worker -> device
  /// worker -> the sibling shards on its device it steals queued jobs
  /// from (tier 1); empty under StealTiers::kNone.
  std::vector<std::vector<int>> steal_victims_;
  std::unique_ptr<worklist::DeviceBroker> broker_;  ///< tier 2; may be null
  std::vector<std::unique_ptr<JobQueue>> queues_;
  std::vector<std::thread> workers_;

  std::atomic<JobId> next_job_id_{1};
  std::atomic<bool> shutdown_{false};
  std::mutex shutdown_mutex_;  ///< serializes shutdown()/destructor joins

  // Lifecycle counters, held as this instance's registry collectors
  // (gvc_service_*): ServiceStats reads these handles, the registry scrape
  // sums them across services.
  std::shared_ptr<obs::Counter> submitted_;
  std::shared_ptr<obs::Counter> completed_;
  std::shared_ptr<obs::Counter> cache_hits_;
  std::shared_ptr<obs::Counter> coalesced_;
  std::shared_ptr<obs::Counter> rejected_;
  std::shared_ptr<obs::Counter> expired_;
  std::shared_ptr<obs::Counter> cancelled_;
  std::shared_ptr<obs::Counter> corpus_batches_;
  std::shared_ptr<obs::Counter> corpus_graphs_submitted_;
  std::shared_ptr<obs::Counter> corpus_graphs_solved_;
  std::shared_ptr<obs::Counter> corpus_graphs_skipped_;
  std::shared_ptr<obs::Counter> steal_jobs_;
  std::shared_ptr<obs::Counter> steal_nodes_;
  std::shared_ptr<obs::Histogram> queue_wait_hist_;
  std::shared_ptr<obs::Histogram> solve_hist_;
  std::shared_ptr<obs::Histogram> e2e_hist_;
  std::shared_ptr<obs::Histogram> migrate_run_hist_;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> jobs_per_worker_;

  std::atomic<std::uint64_t> next_batch_shard_{0};

  int shard_of(const CacheKey& key) const;
  /// Queues one corpus chunk as a batch job (round-robin shard, no cache).
  JobTicket submit_batch_job(JobSpec spec);
  /// The one admission step behind submit() and submit_batch_job(): makes
  /// the job, refuses it after shutdown, consults the cache (non-batch
  /// jobs only: hit, coalesce, or register), and pushes it onto `shard`
  /// with its absolute deadline. A refused push drops the job.
  JobTicket admit(JobSpec spec, const CacheKey& key, int shard);
  /// Ends a job that never ran a solve: releases its cache registration,
  /// counts it under `status` (kRejected, kExpired or kCancelled),
  /// observes its latency and finishes it with a coverless placeholder.
  /// `queue_s` >= 0 is its time in a shard queue; < 0: it never entered
  /// one. A job a cancel already made terminal keeps the times the
  /// canceller stamped (finish() is then a no-op).
  void drop(JobState& job, JobStatus status, double queue_s);
  void worker_loop(int w);
  /// Every worker's job source: own shard, then tier-1 sibling shards,
  /// then a tier-2 migrated node (with a broker), then a wait on the own
  /// shard — timed when there is anything to steal from, so the scan
  /// repeats; a plain blocking pop otherwise. Loops until a job arrives
  /// or the own shard is closed and drained (returns null). The whole
  /// wait is booked as kIdle except migrated-node runs (kSteal).
  std::shared_ptr<JobState> acquire_job(int w,
                                        parallel::SolveWorkspace& workspace);
  /// Stamp one terminal job's latencies into the histograms. `queued`: the
  /// job entered a shard queue (queue_s is meaningful); `solved`: a worker
  /// ran a solve for it. Workers call this BEFORE JobState::finish() wakes
  /// the waiters, so a stats() read that follows a wait() always includes
  /// the job's samples (the observed e2e is measured immediately before
  /// the terminal stamp; the difference is the hand-off, ~ns).
  void observe_latency(double e2e_s, double queue_s, double solve_s,
                       bool queued, bool solved);
};

}  // namespace gvc::service
