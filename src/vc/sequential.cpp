#include "vc/sequential.hpp"

#include <utility>

#include "graph/ops.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "vc/greedy.hpp"
#include "vc/search.hpp"

namespace gvc::vc {

const SolveResult& check_result(const CsrGraph& g, const SolveResult& r) {
  if (r.has_cover()) {
    GVC_CHECK_MSG(static_cast<int>(r.cover.size()) == r.best_size,
                  "cover size disagrees with best_size");
    GVC_CHECK_MSG(graph::is_vertex_cover(g, r.cover),
                  "reported cover does not cover all edges");
  }
  return r;
}

SolveResult solve_sequential(const CsrGraph& g, const SequentialConfig& config,
                             SolveControl* control,
                             ReduceWorkspace* workspace) {
  util::WallTimer timer;
  // MVC: `best` starts at the greedy bound; the tree only records strictly
  // better covers, so the greedy cover is the answer if none is found.
  GreedyResult greedy = greedy_mvc(g);
  const int greedy_size = greedy.size;
  SharedSearch shared(config.problem, config.k, greedy_size,
                      std::move(greedy.cover), control);

  // One workspace for the whole search: reduce() reuses its buffers (and the
  // Descent its trail and frame stack) instead of allocating scratch per
  // tree node. A caller-provided workspace extends the reuse across
  // searches.
  ReduceWorkspace local_ws;
  search_subtree(g, config, shared, DegreeArray(g),
                 workspace ? *workspace : local_ws);

  SolveResult result = shared.harvest();
  result.greedy_upper_bound = greedy_size;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace gvc::vc
