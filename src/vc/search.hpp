#pragma once

// The branch-and-reduce search every solver runs (Fig. 1 lines 3-19,
// Fig. 4 lines 7-19). The paper's blocks each traverse a sub-tree with the
// same visit as the sequential baseline; only where their nodes come from
// differs. So the visit, the stop checks and the outcome are written once,
// here:
//
//   SharedSearch — what every block of one solve shares: the atomic `best`
//                  (Fig. 4 line 18's atomic minimum), the PVC found-flag
//                  (§IV-A), the node counter and the stop latch that
//                  consumes a vc::SolveControl. The first stop cause to fire
//                  wins and is reported through harvest()'s Outcome.
//   NodeBatch    — one block's node accounting against it.
//   BlockSearch  — one block's visit (reduce, prune, cover harvest, branch
//                  vertex) and the depth-first loop over a vc::Descent.
//
// Sequential is one BlockSearch over the root (search_subtree); StackOnly,
// Hybrid, GlobalOnly and WorkStealing run one per thread block, and a
// migrated node is drained through search_subtree against its owner's
// SharedSearch.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/timer.hpp"
#include "vc/degree_array.hpp"
#include "vc/descent.hpp"
#include "vc/reductions.hpp"
#include "vc/sequential.hpp"
#include "vc/solve_types.hpp"

namespace gvc::vc {

class SharedSearch {
 public:
  /// `control` may be null (unlimited, uncancellable). Its node/time budgets
  /// are read once here and measured from construction.
  SharedSearch(Problem problem, int k, int initial_best,
               std::vector<Vertex> initial_cover, SolveControl* control);

  /// Current best cover size (MVC). Lock-free; safe from any block.
  int best() const { return best_.load(std::memory_order_acquire); }

  /// MVC: record a strictly better cover. Returns true if `da`'s solution
  /// improved the best at the moment of the call.
  bool offer_cover(const DegreeArray& da);

  /// PVC: latch the first cover of size ≤ k. Idempotent; later calls lose.
  void set_pvc_found(const DegreeArray& da);
  bool pvc_found() const { return pvc_found_.load(std::memory_order_acquire); }

  /// The stops that need no shared counter. Every call observes the abort
  /// latch and the control's cancel latch (one atomic load each); with
  /// `read_clock` it also checks the time budget and the control's
  /// deadline. Returns false, latching the cause, once the search must stop.
  bool poll_stop(bool read_clock) {
    if (aborted()) return false;
    if (control_ != nullptr && control_->cancelled())
      return latch_stop(StopCause::kCancelled);
    return !read_clock || check_clock();
  }

  /// Claims one node under the node budget. Returns false, latching
  /// kNodeLimit and counting nothing, once the budget is spent, so nodes()
  /// never exceeds it.
  bool claim_node();

  /// Adds `count` nodes that were already admitted (a NodeBatch flush).
  void add_nodes(std::uint64_t count);

  /// Whether an exact node budget is active; NodeBatch then claims every
  /// node here instead of batching.
  bool node_limited() const { return limits_.max_tree_nodes != 0; }

  bool aborted() const {
    return stop_.load(std::memory_order_acquire) !=
           static_cast<std::uint8_t>(StopCause::kNone);
  }

  /// The first cause that latched abort (kNone while running clean).
  StopCause stop_cause() const {
    return static_cast<StopCause>(stop_.load(std::memory_order_acquire));
  }

  /// Admitted nodes; exact once every NodeBatch has been destroyed.
  std::uint64_t nodes() const { return nodes_.load(std::memory_order_relaxed); }

  /// The answer once every block has exited; the outcome is derived from
  /// the stop cause, the problem, and whether a witness is in hand (see
  /// Outcome). Publishes the final progress snapshot when enabled.
  SolveResult harvest() const;

 private:
  Problem problem_;
  SolveControl* control_;  // may be null; not owned
  Limits limits_;          // copied from control_ (or unlimited)
  util::WallTimer timer_;

  std::atomic<int> best_;
  std::atomic<bool> pvc_found_{false};
  /// First StopCause to fire, as its uint8_t value; kNone while running.
  std::atomic<std::uint8_t> stop_{static_cast<std::uint8_t>(StopCause::kNone)};
  std::atomic<std::uint64_t> nodes_{0};

  mutable std::mutex mutex_;
  std::vector<Vertex> best_cover_;  // guarded by mutex_
  std::vector<Vertex> pvc_cover_;   // guarded by mutex_

  /// Latches `cause` if nothing latched yet; returns false (abort).
  bool latch_stop(StopCause cause);

  /// The time budget and the control's deadline; latches on fire.
  bool check_clock();

  void publish_progress(std::uint64_t nodes) const;
};

/// One block's node accounting. A node is counted only once admitted, so
/// the count is exact under every stop. Each node observes the abort and
/// cancel latches; the clock is read on every kClockEvery-th node, starting
/// with the first. Without a node budget, admitted nodes reach the shared
/// counter in batches of `flush_every` (and on destruction) — a local
/// increment instead of a contended fetch_add across the grid; with one,
/// each node is claimed from the shared counter so the grid never visits
/// more nodes than the budget. On destruction the block's total is added
/// to `*visited_sink` when given (the block's BlockStats::nodes_visited).
class NodeBatch {
 public:
  static constexpr std::uint32_t kDefaultFlushEvery = 32;
  static constexpr std::uint32_t kClockEvery = 8;

  explicit NodeBatch(SharedSearch& shared,
                     std::uint64_t* visited_sink = nullptr,
                     std::uint32_t flush_every = kDefaultFlushEvery)
      : shared_(&shared),
        sink_(visited_sink),
        flush_every_(flush_every == 0 ? 1 : flush_every),
        exact_(shared.node_limited()) {}

  NodeBatch(const NodeBatch&) = delete;
  NodeBatch& operator=(const NodeBatch&) = delete;

  ~NodeBatch() {
    flush();
    if (sink_ != nullptr) *sink_ += visited_;
  }

  /// Admits one tree node. Returns false, counting nothing, once the
  /// search must stop.
  bool register_node() {
    if (!shared_->poll_stop(visited_ % kClockEvery == 0)) return false;
    if (exact_) {
      if (!shared_->claim_node()) return false;
    } else if (++pending_ == flush_every_) {
      flush();
    }
    ++visited_;
    return true;
  }

  /// Nodes this batch admitted.
  std::uint64_t visited() const { return visited_; }

 private:
  /// Pushes the admitted nodes not yet counted to the shared counter.
  void flush() {
    if (pending_ > 0) {
      shared_->add_nodes(pending_);
      pending_ = 0;
    }
  }

  SharedSearch* shared_;
  std::uint64_t* sink_;
  std::uint64_t visited_ = 0;
  std::uint32_t pending_ = 0;
  std::uint32_t flush_every_;
  bool exact_;
};

enum class NodeOutcome { kAbort, kPruned, kFound, kBranch };

/// One block's side of a search: its node accounting, its reduce scratch
/// and where its Fig. 6 charges go.
class BlockSearch {
 public:
  /// `activities`, when non-null, receives the Fig. 6 charges and has its
  /// sample gate set on every admitted node; `visited_sink` is handed to the
  /// NodeBatch.
  BlockSearch(const CsrGraph& g, const SequentialConfig& config,
              SharedSearch& shared, ReduceWorkspace& ws,
              util::ActivityAccumulator* activities = nullptr,
              std::uint64_t* visited_sink = nullptr)
      : g_(g),
        config_(config),
        shared_(shared),
        ws_(ws),
        activities_(activities),
        nodes_(shared, visited_sink) {}

  /// One visit: admit the node, reduce, apply the stopping condition
  /// (§II-B), harvest a cover, pick the branching vertex. On kBranch
  /// `vmax_out` holds it. On kFound the cover has already been offered
  /// (MVC) or latched (PVC); the caller only decides whether to go on.
  NodeOutcome visit(DegreeArray& da, Vertex& vmax_out);

  /// Depth-first over `descent` from `da` (an adopted or already descended
  /// node) until the sub-tree is exhausted, the search stops, or a PVC
  /// cover is latched — by this block or any other.
  void descend(Descent& descent, DegreeArray& da);

  /// Nodes this block admitted.
  std::uint64_t visited() const { return nodes_.visited(); }

 private:
  const CsrGraph& g_;
  const SequentialConfig& config_;
  SharedSearch& shared_;
  ReduceWorkspace& ws_;
  util::ActivityAccumulator* activities_;
  NodeBatch nodes_;
};

/// Runs the sub-tree rooted at the standalone node `da` against `shared`
/// under `config.branch_state`, with `ws` as scratch (trail included) and
/// no Fig. 6 accounting. Sequential runs the root through it; a migrated
/// (or reclaimed) donation runs through it against its owning solve, so a
/// node that crossed a device is explored under the owner's prune bound,
/// budgets and cover harvest. `best` only falls, so its value now bounds
/// the depth below `da`.
void search_subtree(const CsrGraph& g, const SequentialConfig& config,
                    SharedSearch& shared, DegreeArray da,
                    ReduceWorkspace& ws);

}  // namespace gvc::vc
