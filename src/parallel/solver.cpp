#include "parallel/solver.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"
#include "vc/greedy.hpp"

namespace gvc::parallel {

namespace {

// Process-wide solver-layer counters: the worklist substrate's per-solve
// stats (already merged by each solver) and the solve/tree-node totals are
// folded into the registry once per solve() — never on the node hot path.
// The imbalance histogram takes one sample per launch of two or more
// blocks (LaunchStats::cpu_imbalance). It reuses the seconds scale of
// obs::Histogram so a scrape reads the ratio itself (3.2 = the busiest
// block burned 3.2x the mean block's CPU time).
struct SolverMetrics {
  std::shared_ptr<obs::Counter> solves;
  std::shared_ptr<obs::Counter> tree_nodes;
  std::shared_ptr<obs::Counter> worklist_adds;
  std::shared_ptr<obs::Counter> worklist_removes;
  std::shared_ptr<obs::Counter> worklist_steals;
  std::shared_ptr<obs::Counter> worklist_steal_attempts;
  std::shared_ptr<obs::Histogram> imbalance_ratio;

  static const SolverMetrics& get() {
    static const SolverMetrics* m = new SolverMetrics{
        obs::Registry::global().counter("gvc_solves_total",
                                        "parallel::solve() calls"),
        obs::Registry::global().counter("gvc_solve_tree_nodes_total",
                                        "search-tree nodes visited"),
        obs::Registry::global().counter("gvc_worklist_adds_total",
                                        "worklist adds + donations"),
        obs::Registry::global().counter("gvc_worklist_removes_total",
                                        "worklist removals"),
        obs::Registry::global().counter("gvc_worklist_steals_total",
                                        "successful cross-block steals"),
        obs::Registry::global().counter("gvc_worklist_steal_attempts_total",
                                        "steal probes of non-empty victims"),
        obs::Registry::global().histogram(
            "gvc_solve_imbalance_ratio",
            "per-launch max/mean block CPU time (launches of >= 2 blocks)"),
    };
    return *m;
  }
};

}  // namespace

const char* method_name(Method m) {
  switch (m) {
    case Method::kSequential:   return "Sequential";
    case Method::kStackOnly:    return "StackOnly";
    case Method::kHybrid:       return "Hybrid";
    case Method::kGlobalOnly:   return "GlobalOnly";
    case Method::kWorkStealing: return "WorkStealing";
  }
  return "?";
}

const std::vector<Method>& all_methods() {
  static const std::vector<Method> kAll = {
      Method::kSequential, Method::kStackOnly, Method::kHybrid,
      Method::kGlobalOnly, Method::kWorkStealing};
  return kAll;
}

std::optional<Method> try_parse_method(const std::string& name) {
  std::string n = util::to_lower(name);
  if (n == "sequential" || n == "seq") return Method::kSequential;
  if (n == "stackonly" || n == "stack-only") return Method::kStackOnly;
  if (n == "hybrid") return Method::kHybrid;
  if (n == "globalonly" || n == "global-only") return Method::kGlobalOnly;
  if (n == "workstealing" || n == "work-stealing")
    return Method::kWorkStealing;
  return std::nullopt;
}

Method parse_method(const std::string& name) {
  std::optional<Method> m = try_parse_method(name);
  GVC_CHECK_MSG(m.has_value(),
                "unknown method (want "
                "sequential|stackonly|hybrid|globalonly|workstealing)");
  return *m;
}

namespace {

ParallelResult dispatch_solve(const graph::CsrGraph& g, Method method,
                              const ParallelConfig& config,
                              vc::SolveControl* control,
                              SolveWorkspace* workspace,
                              const StealEnv* env) {
  switch (method) {
    case Method::kSequential: {
      BlockScratch scratch(workspace, 1);
      ParallelResult r;
      static_cast<vc::SolveResult&>(r) = solve_sequential(
          g, sequential_config_of(config), control, &scratch.block(0));
      r.sim_seconds = r.seconds;  // one CPU thread: makespan == wall time
      return r;
    }
    case Method::kStackOnly:
      return solve_stack_only(g, config, control, workspace);
    case Method::kHybrid:
      return solve_hybrid(g, config, control, workspace, env);
    case Method::kGlobalOnly:
      return solve_global_only(g, config, control, workspace);
    case Method::kWorkStealing:
      return solve_work_stealing(g, config, control, workspace, env);
  }
  GVC_CHECK(false);
  return {};
}

}  // namespace

const char* check_solve(const graph::CsrGraph& g, Method method,
                        const ParallelConfig& config, int* threads) {
  *threads = 1;
  if (method == Method::kSequential) return nullptr;
  const auto plan = [&](int greedy_size, const char** why) {
    return try_plan_block_launch(config, method == Method::kStackOnly,
                                 g.num_vertices(), greedy_size, why);
  };
  const char* why = nullptr;
  std::optional<BlockLaunch> launch = plan(0, &why);  // exact for PVC
  // MVC's stack follows the greedy cover, whose size lies in
  // [0, min(|V|, |E|)]. A deeper stack only shrinks what plans and how many
  // blocks stay resident, so when both ends of that range plan with equal
  // thread counts, the solver's launch matches them and the greedy pass
  // (O((|V| + |E|) log |V|), on the caller's thread) is skipped.
  if (launch && config.problem == vc::Problem::kMvc) {
    const auto widest = static_cast<int>(
        std::min<std::int64_t>(g.num_vertices(), g.num_edges()));
    const std::optional<BlockLaunch> deepest = plan(widest, &why);
    if (!deepest || deepest->threads != launch->threads)
      launch = plan(vc::greedy_mvc(g).size, &why);
  }
  if (!launch) return why;
  *threads = launch->threads;
  return nullptr;
}

ParallelResult solve(const graph::CsrGraph& g, Method method,
                     const ParallelConfig& config, vc::SolveControl* control,
                     SolveWorkspace* workspace, const StealEnv* env) {
  ParallelResult result;
  {
    obs::TraceSpan span(obs::TraceCat::kSolve, method_name(method), "vertices",
                        g.num_vertices());
    result = dispatch_solve(g, method, config, control, workspace, env);
  }
  const SolverMetrics& m = SolverMetrics::get();
  m.solves->add(1);
  m.tree_nodes->add(result.tree_nodes);
  if (result.worklist.adds != 0) m.worklist_adds->add(result.worklist.adds);
  if (result.worklist.removes != 0)
    m.worklist_removes->add(result.worklist.removes);
  if (result.worklist.steals != 0)
    m.worklist_steals->add(result.worklist.steals);
  if (result.worklist.steal_attempts != 0)
    m.worklist_steal_attempts->add(result.worklist.steal_attempts);
  if (result.launch.blocks.size() >= 2)
    m.imbalance_ratio->observe_seconds(result.launch.cpu_imbalance());
  return result;
}

}  // namespace gvc::parallel
