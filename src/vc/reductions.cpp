#include "vc/reductions.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <utility>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace gvc::vc {

namespace {

/// Unique present neighbor of a degree-one vertex v, judged against the
/// membership snapshot `snap` (or the live array when snap == nullptr).
Vertex unique_present_neighbor(const CsrGraph& g, const DegreeArray& da,
                               const std::vector<std::int32_t>* snap,
                               Vertex v) {
  Vertex found = -1;
  if (snap == nullptr) {
    da.for_each_present_neighbor(g, v, [&](Vertex u) {
      found = u;
      return false;
    });
  } else {
    for (Vertex u : g.neighbors(v)) {
      if ((*snap)[static_cast<std::size_t>(u)] != DegreeArray::kInSolution) {
        found = u;
        break;
      }
    }
  }
  GVC_CHECK_MSG(found >= 0, "degree-one vertex with no present neighbor");
  return found;
}

/// The two present neighbors of a degree-two vertex v (snapshot semantics as
/// above). Returns false if the vertex does not have exactly two.
bool two_present_neighbors(const CsrGraph& g, const DegreeArray& da,
                           const std::vector<std::int32_t>* snap, Vertex v,
                           Vertex& a, Vertex& b) {
  int found = 0;
  auto take = [&](Vertex u) {
    if (found == 0) a = u;
    else if (found == 1) b = u;
    return ++found <= 2;  // a third neighbor settles it
  };
  if (snap == nullptr) {
    da.for_each_present_neighbor(g, v, take);
  } else {
    for (Vertex u : g.neighbors(v))
      if ((*snap)[static_cast<std::size_t>(u)] != DegreeArray::kInSolution &&
          !take(u))
        break;
  }
  return found == 2;
}

/// Whether x triggers the degree-two-triangle rule under the snapshot:
/// snapshot degree 2 and its two snapshot-present neighbors are adjacent.
bool sweep_triangle_qualifies(const CsrGraph& g, const DegreeArray& da,
                              const std::vector<std::int32_t>& snap, Vertex x) {
  if (snap[static_cast<std::size_t>(x)] != 2) return false;
  Vertex a = -1, b = -1;
  if (!two_present_neighbors(g, da, &snap, x, a, b)) return false;
  return g.has_edge(a, b);
}

std::int64_t degree_one_serial(const CsrGraph& g, DegreeArray& da) {
  std::int64_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      if (!da.present(v) || da.degree(v) != 1) continue;
      Vertex u = unique_present_neighbor(g, da, nullptr, v);
      da.remove_into_solution(g, u);
      ++removed;
      changed = true;
    }
  }
  return removed;
}

std::int64_t degree_one_sweep(const CsrGraph& g, DegreeArray& da,
                              std::vector<std::int32_t>& snap) {
  std::int64_t removed = 0;
  for (;;) {
    snap.assign(da.raw().begin(), da.raw().end());
    std::int64_t this_sweep = 0;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      if (snap[static_cast<std::size_t>(v)] != 1) continue;
      Vertex u = unique_present_neighbor(g, da, &snap, v);
      // Adjacent degree-one pair: only one endpoint executes so that only
      // one of the two vertices enters S — the paper removes the one with
      // the smaller id, so the larger-id endpoint is the executor (§IV-D).
      if (snap[static_cast<std::size_t>(u)] == 1 && u > v) continue;
      if (da.present(u)) {  // may already be gone via a shared neighbor
        da.remove_into_solution(g, u);
        ++this_sweep;
      }
    }
    removed += this_sweep;
    if (this_sweep == 0) break;
  }
  return removed;
}

std::int64_t degree_two_serial(const CsrGraph& g, DegreeArray& da) {
  std::int64_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      if (!da.present(v) || da.degree(v) != 2) continue;
      Vertex a = -1, b = -1;
      if (!two_present_neighbors(g, da, nullptr, v, a, b)) continue;
      if (!g.has_edge(a, b)) continue;
      da.remove_into_solution(g, a);
      da.remove_into_solution(g, b);
      removed += 2;
      changed = true;
    }
  }
  return removed;
}

std::int64_t degree_two_sweep(const CsrGraph& g, DegreeArray& da,
                              std::vector<std::int32_t>& snap) {
  std::int64_t removed = 0;
  for (;;) {
    snap.assign(da.raw().begin(), da.raw().end());
    std::int64_t this_sweep = 0;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      if (!sweep_triangle_qualifies(g, da, snap, v)) continue;
      Vertex a = -1, b = -1;
      GVC_CHECK(two_present_neighbors(g, da, &snap, v, a, b));
      // A triangle of three degree-two vertices makes all of them qualify;
      // only the smallest id executes (§IV-D).
      if ((sweep_triangle_qualifies(g, da, snap, a) && a < v) ||
          (sweep_triangle_qualifies(g, da, snap, b) && b < v))
        continue;
      if (da.present(a)) { da.remove_into_solution(g, a); ++this_sweep; }
      if (da.present(b)) { da.remove_into_solution(g, b); ++this_sweep; }
    }
    removed += this_sweep;
    if (this_sweep == 0) break;
  }
  return removed;
}

std::int64_t high_degree_serial(const CsrGraph& g, DegreeArray& da,
                                const BudgetPolicy& policy) {
  std::int64_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      std::int64_t budget = policy.budget(da.solution_size());
      if (budget == std::numeric_limits<std::int64_t>::max()) return removed;
      if (budget < 0) return removed;  // node is prunable; stop reducing
      if (!da.present(v) || da.degree(v) <= budget) continue;
      da.remove_into_solution(g, v);
      ++removed;
      changed = true;
    }
  }
  return removed;
}

std::int64_t high_degree_sweep(const CsrGraph& g, DegreeArray& da,
                               const BudgetPolicy& policy,
                               std::vector<std::int32_t>& snap) {
  std::int64_t removed = 0;
  for (;;) {
    std::int64_t budget = policy.budget(da.solution_size());
    if (budget == std::numeric_limits<std::int64_t>::max()) break;
    if (budget < 0) break;
    snap.assign(da.raw().begin(), da.raw().end());
    std::int64_t this_sweep = 0;
    for (Vertex v = 0; v < da.num_vertices(); ++v) {
      std::int32_t d = snap[static_cast<std::size_t>(v)];
      if (d == DegreeArray::kInSolution || d <= budget) continue;
      // Sound even though |S| grows during the sweep: every removal tightens
      // the budget by one while degrees drop by at most one per removed
      // neighbor, so a snapshot-qualifying vertex still qualifies.
      da.remove_into_solution(g, v);
      ++this_sweep;
    }
    removed += this_sweep;
    if (this_sweep == 0) break;
  }
  return removed;
}

using util::timed;

// --- incremental engine -----------------------------------------------------

/// Degree-one rule at v, checked against the live array: if v has exactly
/// one present neighbor, move that neighbor into S. Returns the removals.
std::int64_t degree_one_at(const CsrGraph& g, DegreeArray& da, Vertex v) {
  if (!da.present(v) || da.degree(v) != 1) return 0;
  da.remove_into_solution(g, unique_present_neighbor(g, da, nullptr, v));
  return 1;
}

/// Degree-two-triangle rule at v: if v's two present neighbors are
/// adjacent, move both into S. Returns the removals.
std::int64_t degree_two_at(const CsrGraph& g, DegreeArray& da, Vertex v) {
  if (!da.present(v) || da.degree(v) != 2) return 0;
  Vertex a = -1, b = -1;
  if (!two_present_neighbors(g, da, nullptr, v, a, b)) return 0;
  if (!g.has_edge(a, b)) return 0;
  da.remove_into_solution(g, a);
  da.remove_into_solution(g, b);
  return 2;
}

enum class SeedMode {
  kScan,  ///< one full linear scan for the trigger degree (first reduction)
  kList,  ///< seed from a fused-scan list, then drain the log from `cursor`
  kLog,   ///< drain the log from `cursor` only (fixpoint inherited)
};

/// Runs one rule to its fixpoint over the candidate worklist, reproducing
/// kSerial's repeated ascending-id scans without touching unchanged
/// vertices. `cursor` is this rule's consumption point in the degree
/// array's dirty log: entries at or past it have not yet been considered by
/// this rule. `try_apply(v)` checks live qualification and applies the rule
/// at v, returning the number of removals (0 if v does not qualify); every
/// removal appends the decremented vertices to the dirty log, which this
/// loop drains — ids greater than the current position join the current
/// pass (kSerial's scan would still reach them), the rest wait for the next
/// pass.
///
/// Two filters keep the worklist tiny without breaking the serial
/// equivalence:
///   * Trigger-degree filter: both candidate-driven rules fire only at an
///     exact degree (1, or 2), degrees only ever decrease, and every
///     decrement logs a fresh entry — so an entry whose CURRENT degree is
///     not the trigger can never qualify before some later entry
///     re-enqueues it, and is dropped.
///   * Pending stamp: within-pass processing is globally ascending (heap
///     pops ascend and same-pass insertions are greater than the current
///     position), so a vertex already pending in the heap or the next-pass
///     list gains nothing from a duplicate entry — qualification is checked
///     live at pop. Every stamp is cleared again by the time the run
///     returns.
///
/// Seeding:
///   * kScan — one linear scan for vertices at the trigger degree (the one
///     full scan the first reduction of a node lineage pays); the cursor
///     skips the log.
///   * kList — the caller collected this rule's trigger list with a fused
///     scan BEFORE earlier rules of the same reduce call ran, and set
///     `cursor` to the log size as of that scan. Seeding re-filters the list
///     against CURRENT degrees and then drains the log from `cursor` into
///     the current pass (pos = -1): any vertex at the trigger degree now
///     either already was at the scan (in the list) or changed degree since
///     (in the drained log suffix), so the heap holds exactly the set a
///     fresh kScan would collect — and a min-heap pops it in the same
///     ascending order regardless of insertion order.
///   * kLog — only the log from `cursor` (the rule's fixpoint is inherited).
template <typename TryApply>
std::int64_t run_rule_pass(DegreeArray& da, ReduceWorkspace& ws,
                           std::size_t& cursor, SeedMode mode,
                           const std::vector<Vertex>* seed_list,
                           std::int32_t trigger_degree, TryApply&& try_apply) {
  const std::vector<Vertex>& log = da.dirty();  // stable object; may regrow
  const std::span<const std::int32_t> deg = da.raw();
  auto& heap = ws.heap;
  auto& next = ws.next;
  auto& pending = ws.pending;
  heap.clear();
  next.clear();
  if (pending.size() < deg.size()) pending.assign(deg.size(), 0);
  const auto by_min = std::greater<Vertex>();
  auto push = [&](Vertex v) {
    heap.push_back(v);
    std::push_heap(heap.begin(), heap.end(), by_min);
  };
  // pos == -1 routes everything into the current (first) pass: entries that
  // predate the rule invocation are all visible to its first serial scan.
  auto enqueue = [&](Vertex w, Vertex pos) {
    if (deg[static_cast<std::size_t>(w)] != trigger_degree) return;
    auto& mark = pending[static_cast<std::size_t>(w)];
    if (mark) return;
    mark = 1;
    if (w > pos)
      push(w);  // the serial scan of this pass would still reach w
    else
      next.push_back(w);
  };

  switch (mode) {
    case SeedMode::kScan: {
      cursor = log.size();
      const Vertex n = da.num_vertices();
      for (Vertex v = 0; v < n; ++v) {
        if (deg[static_cast<std::size_t>(v)] == trigger_degree) {
          pending[static_cast<std::size_t>(v)] = 1;
          heap.push_back(v);  // ascending ids: already a valid min-heap
        }
      }
      break;
    }
    case SeedMode::kList:
      for (Vertex v : *seed_list) {
        if (deg[static_cast<std::size_t>(v)] != trigger_degree) continue;
        auto& mark = pending[static_cast<std::size_t>(v)];
        if (mark) continue;
        mark = 1;
        heap.push_back(v);  // seed lists ascend: still a valid min-heap
      }
      [[fallthrough]];
    case SeedMode::kLog:
      for (; cursor < log.size(); ++cursor) enqueue(log[cursor], -1);
      break;
  }

  std::int64_t removed = 0;
  for (;;) {
    if (heap.empty()) {
      if (next.empty()) break;
      for (Vertex v : next) push(v);  // start the next pass
      next.clear();
    }
    std::pop_heap(heap.begin(), heap.end(), by_min);
    const Vertex v = heap.back();
    heap.pop_back();
    pending[static_cast<std::size_t>(v)] = 0;
    const std::int64_t n = try_apply(v);
    if (n == 0) continue;
    removed += n;
    for (; cursor < log.size(); ++cursor) enqueue(log[cursor], v);
  }
  return removed;
}

/// The high-degree rule is budget-driven, not degree-change-driven (every
/// removal anywhere tightens the budget), so instead of candidates it uses
/// the degree array's cached maximum-degree bound as an O(1) "cannot fire"
/// gate and falls back to the exact serial pass only when some vertex actually
/// exceeds the budget. The serial pass removes at least one vertex whenever
/// it runs, so its scan cost is always matched by real work.
std::int64_t high_degree_incremental(const CsrGraph& g, DegreeArray& da,
                                     const BudgetPolicy& policy) {
  const std::int64_t budget = policy.budget(da.solution_size());
  if (budget == std::numeric_limits<std::int64_t>::max()) return 0;
  if (budget < 0) return 0;  // node is prunable; stop reducing
  if (da.max_degree_bound() <= budget) return 0;   // O(1): no vertex can exceed
  if (da.max_degree() <= budget) return 0;         // one scan, tightens the bound
  return high_degree_serial(g, da, policy);
}

/// The kIncremental fixpoint: the round loop of kSerial with each
/// candidate-driven rule run by run_rule_pass. A rule may trust the dirty
/// log only if its own fixpoint was part of the lineage's previous
/// reduction (its fixpoint-mask bit is set) AND the log has captured every
/// change since (no overflow). Otherwise — first reduction of the lineage,
/// the rule was disabled last time, or a branch dirtied more than the log
/// carries — it pays one linear seed scan, which is a superset of any log
/// seeding and therefore just as exact. Three savings ride on top:
///
///   * Whole-call dead fast path — when every enabled candidate rule is at
///     its lineage fixpoint with no log candidate at its trigger and the
///     O(1) budget gate proves high-degree cannot fire, the first round
///     would remove nothing and exit; reproduce its exit bookkeeping
///     without seeding a single worklist.
///   * Fused seeding — when both candidate rules need a seed scan, one
///     linear scan collects both trigger lists (SeedMode::kList).
///   * Per round, a rule at its fixpoint whose cursor has nothing left to
///     drain is skipped as a provable no-op (its heap would seed empty).
ReduceStats reduce_incremental(const CsrGraph& g, DegreeArray& da,
                               const BudgetPolicy& policy, const RuleSet& rules,
                               util::ActivityAccumulator* acc,
                               ReduceWorkspace& ws) {
  const bool d1 = rules.degree_one;
  const bool d2 = rules.degree_two_triangle;
  const std::uint8_t fixpoint_mask = static_cast<std::uint8_t>(
      (d1 ? DegreeArray::kRuleBitDegreeOne : 0) |
      (d2 ? DegreeArray::kRuleBitDegreeTwo : 0));
  ReduceStats stats;
  if (!da.tracking()) da.enable_tracking();
  if (da.dirty_overflowed()) {
    da.clear_dirty();
    da.set_reduce_fixpoint_mask(0);
  }
  const std::uint8_t mask = da.reduce_fixpoint_mask();
  bool seeded1 = (mask & DegreeArray::kRuleBitDegreeOne) != 0;
  bool seeded2 = (mask & DegreeArray::kRuleBitDegreeTwo) != 0;

  if ((!d1 || seeded1) && (!d2 || seeded2)) {
    bool cand1 = false, cand2 = false;
    if (d1 || d2) {
      const std::span<const std::int32_t> deg = da.raw();
      for (Vertex v : da.dirty()) {
        const std::int32_t d = deg[static_cast<std::size_t>(v)];
        cand1 |= d == 1;
        cand2 |= d == 2;
      }
    }
    bool hd_dead = true;
    if (rules.high_degree) {
      const std::int64_t budget = policy.budget(da.solution_size());
      hd_dead = budget == std::numeric_limits<std::int64_t>::max() ||
                budget < 0 || da.max_degree_bound() <= budget;
    }
    if ((!d1 || !cand1) && (!d2 || !cand2) && hd_dead) {
      stats.rounds = 1;
      da.clear_dirty();
      da.set_reduce_fixpoint_mask(fixpoint_mask);
      return stats;
    }
  }

  // The engine consumes the log promptly; only inter-reduction mutations
  // (branch decisions) are subject to the cap.
  da.suspend_dirty_cap();
  std::size_t cursor1 = 0, cursor2 = 0;
  bool list1 = false, list2 = false;
  if (d1 && d2 && !seeded1 && !seeded2) {
    const std::span<const std::int32_t> deg = da.raw();
    ws.seed1.clear();
    ws.seed2.clear();
    const Vertex n = da.num_vertices();
    for (Vertex v = 0; v < n; ++v) {
      const std::int32_t d = deg[static_cast<std::size_t>(v)];
      if (d == 1) ws.seed1.push_back(v);
      else if (d == 2) ws.seed2.push_back(v);
    }
    cursor1 = cursor2 = da.dirty().size();
    list1 = list2 = true;
  }

  const std::vector<Vertex>& log = da.dirty();
  auto run_rule = [&](bool& seeded, bool& listed, std::size_t& cursor,
                      const std::vector<Vertex>& seeds,
                      std::int32_t trigger_degree, util::Activity activity,
                      auto&& try_apply) -> std::int64_t {
    const SeedMode mode = listed   ? SeedMode::kList
                          : seeded ? SeedMode::kLog
                                   : SeedMode::kScan;
    seeded = true;
    listed = false;
    if (mode == SeedMode::kLog && cursor == log.size()) return 0;
    return timed(acc, activity, [&] {
      return run_rule_pass(da, ws, cursor, mode, &seeds, trigger_degree,
                           try_apply);
    });
  };
  std::int64_t round_removed;
  do {
    round_removed = 0;
    if (d1) {
      std::int64_t n = run_rule(
          seeded1, list1, cursor1, ws.seed1, 1, util::Activity::kDegreeOneRule,
          [&](Vertex v) { return degree_one_at(g, da, v); });
      stats.degree_one_removed += n;
      round_removed += n;
    }
    if (d2) {
      std::int64_t n = run_rule(
          seeded2, list2, cursor2, ws.seed2, 2,
          util::Activity::kDegreeTwoTriangleRule,
          [&](Vertex v) { return degree_two_at(g, da, v); });
      stats.degree_two_removed += n;
      round_removed += n;
    }
    if (rules.high_degree) {
      std::int64_t n = timed(acc, util::Activity::kHighDegreeRule, [&] {
        return high_degree_incremental(g, da, policy);
      });
      stats.high_degree_removed += n;
      round_removed += n;
    }
    ++stats.rounds;
  } while (round_removed > 0);

  // Fixpoint reached: nothing the enabled rules recognize qualifies
  // anywhere. Reset the log so the caller's branch mutations accumulate the
  // children's candidate seeds (bounded again by the cap), and record which
  // rules this fixpoint covers — a rule enabled later must re-seed.
  da.clear_dirty();
  da.restore_dirty_cap();
  da.set_reduce_fixpoint_mask(fixpoint_mask);
  return stats;
}

/// Standalone incremental rule call: no prior fixpoint to lean on, so seed
/// with a full scan, run to fixpoint, and restore the array's tracking
/// state (a previously untracked array stays untracked; a tracked one keeps
/// the entries our removals appended — the owning engine treats them as
/// candidates, which is merely conservative).
template <typename TryApply>
std::int64_t standalone_incremental(DegreeArray& da, ReduceWorkspace* ws,
                                    std::int32_t trigger_degree,
                                    TryApply&& try_apply) {
  ReduceWorkspace local;
  ReduceWorkspace& w = ws ? *ws : local;
  const bool was_tracking = da.tracking();
  da.enable_tracking();
  // A latched overflow would silence the logging this rule's own cascade
  // feed depends on. Discard the (already incomplete) log and the fixpoint
  // mask, exactly as reduce_incremental does — the owning engine re-seeds.
  if (da.dirty_overflowed()) {
    da.clear_dirty();
    da.set_reduce_fixpoint_mask(0);
  }
  da.suspend_dirty_cap();
  std::size_t cursor = da.dirty().size();
  std::int64_t removed = run_rule_pass(da, w, cursor, SeedMode::kScan, nullptr,
                                       trigger_degree, try_apply);
  if (!was_tracking)
    da.disable_tracking();
  else
    da.restore_dirty_cap();
  return removed;
}

}  // namespace

void ReduceStats::merge(const ReduceStats& o) {
  degree_one_removed += o.degree_one_removed;
  degree_two_removed += o.degree_two_removed;
  high_degree_removed += o.high_degree_removed;
  rounds += o.rounds;
}

std::int64_t apply_degree_one(const CsrGraph& g, DegreeArray& da,
                              ReduceSemantics semantics, ReduceWorkspace* ws) {
  switch (semantics) {
    case ReduceSemantics::kSerial:
      return degree_one_serial(g, da);
    case ReduceSemantics::kParallelSweep: {
      ReduceWorkspace local;
      return degree_one_sweep(g, da, ws ? ws->snapshot : local.snapshot);
    }
    case ReduceSemantics::kIncremental:
      return standalone_incremental(
          da, ws, 1, [&](Vertex v) { return degree_one_at(g, da, v); });
  }
  GVC_CHECK(false);
  return 0;
}

std::int64_t apply_degree_two_triangle(const CsrGraph& g, DegreeArray& da,
                                       ReduceSemantics semantics,
                                       ReduceWorkspace* ws) {
  switch (semantics) {
    case ReduceSemantics::kSerial:
      return degree_two_serial(g, da);
    case ReduceSemantics::kParallelSweep: {
      ReduceWorkspace local;
      return degree_two_sweep(g, da, ws ? ws->snapshot : local.snapshot);
    }
    case ReduceSemantics::kIncremental:
      return standalone_incremental(
          da, ws, 2, [&](Vertex v) { return degree_two_at(g, da, v); });
  }
  GVC_CHECK(false);
  return 0;
}

std::int64_t apply_high_degree(const CsrGraph& g, DegreeArray& da,
                               const BudgetPolicy& policy,
                               ReduceSemantics semantics, ReduceWorkspace* ws) {
  switch (semantics) {
    case ReduceSemantics::kSerial:
      return high_degree_serial(g, da, policy);
    case ReduceSemantics::kParallelSweep: {
      ReduceWorkspace local;
      return high_degree_sweep(g, da, policy, ws ? ws->snapshot : local.snapshot);
    }
    case ReduceSemantics::kIncremental:
      return high_degree_incremental(g, da, policy);
  }
  GVC_CHECK(false);
  return 0;
}

void adopt_node(const DegreeArray& da) {
  obs::trace_instant(obs::TraceCat::kWork, "adopt", "edges", da.num_edges());
}

ReduceStats reduce(const CsrGraph& g, DegreeArray& da,
                   const BudgetPolicy& policy, ReduceSemantics semantics,
                   const RuleSet& rules, util::ActivityAccumulator* acc,
                   ReduceWorkspace* ws) {
  ReduceWorkspace local;
  ReduceWorkspace& w = ws ? *ws : local;
  obs::TraceSpanSampled trace_span(obs::TraceCat::kReduce, "reduce");

  if (semantics == ReduceSemantics::kIncremental)
    return reduce_incremental(g, da, policy, rules, acc, w);

  ReduceStats stats;
  std::int64_t round_removed;
  do {
    round_removed = 0;
    if (rules.degree_one) {
      std::int64_t n = timed(acc, util::Activity::kDegreeOneRule, [&] {
        return apply_degree_one(g, da, semantics, &w);
      });
      stats.degree_one_removed += n;
      round_removed += n;
    }
    if (rules.degree_two_triangle) {
      std::int64_t n = timed(acc, util::Activity::kDegreeTwoTriangleRule, [&] {
        return apply_degree_two_triangle(g, da, semantics, &w);
      });
      stats.degree_two_removed += n;
      round_removed += n;
    }
    if (rules.high_degree) {
      std::int64_t n = timed(acc, util::Activity::kHighDegreeRule, [&] {
        return apply_high_degree(g, da, policy, semantics, &w);
      });
      stats.high_degree_removed += n;
      round_removed += n;
    }
    ++stats.rounds;
  } while (round_removed > 0);
  return stats;
}

}  // namespace gvc::vc
