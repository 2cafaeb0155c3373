#pragma once

// Unified entry point over the code versions: the three the paper evaluates
// in §V — Sequential (single CPU thread), StackOnly (prior work's
// fixed-depth sub-tree distribution) and Hybrid (the paper's contribution) —
// plus two study baselines: GlobalOnly (the pure-worklist strawman §IV-A
// motivates Hybrid against) and WorkStealing (per-block deques with steals,
// the classic alternative load balancer).

#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "parallel/config.hpp"
#include "parallel/global_only.hpp"
#include "parallel/hybrid.hpp"
#include "parallel/stack_only.hpp"
#include "parallel/steal_env.hpp"
#include "parallel/work_stealing.hpp"
#include "vc/sequential.hpp"

namespace gvc::parallel {

enum class Method {
  kSequential,
  kStackOnly,
  kHybrid,
  kGlobalOnly,
  kWorkStealing,
};

const char* method_name(Method m);

/// All methods, in the order above (handy for sweeps).
const std::vector<Method>& all_methods();

/// Parses "sequential" / "stackonly" / "hybrid" / "globalonly" /
/// "workstealing" (case-insensitive). std::nullopt on anything else — for
/// tools that want to print usage instead of aborting.
std::optional<Method> try_parse_method(const std::string& name);

/// Like try_parse_method, but aborts (GVC_CHECK) on unknown names — for
/// callers where a bad name is a programming error.
Method parse_method(const std::string& name);

/// Runs the selected implementation. Sequential ignores the device/worklist
/// fields of the config; its result has empty launch/worklist stats.
///
/// `control` (optional) is the externally-owned stop handle: its node/time
/// budgets bound the solve, its deadline/cancel latch stop it mid-flight
/// from any thread, and its progress snapshot is published while the solve
/// runs. With no control the solve is unlimited and uncancellable, and
/// behaves bit-identically to a control that never fires.
///
/// Re-entrant: concurrent calls (with distinct workspaces, or none) are
/// safe — all solver state lives on the call's stack. Passing `workspace`
/// reuses its buffers instead of allocating scratch per call.
///
/// `env` (optional) is the cross-device stealing environment: when set,
/// Hybrid and WorkStealing divert branch children into its DeviceBroker
/// while remote devices advertise demand, and settle every migrated node
/// (executed-or-abandoned) before returning. The other methods ignore it.
/// Null env is bit-identical to the pre-multi-device behavior.
ParallelResult solve(const graph::CsrGraph& g, Method method,
                     const ParallelConfig& config,
                     vc::SolveControl* control = nullptr,
                     SolveWorkspace* workspace = nullptr,
                     const StealEnv* env = nullptr);

/// Checks an untrusted request against the device it will run on, without
/// aborting: nullptr if `method` can plan its launch for `g` under `config`,
/// else the reason solve() would abort. On success `*threads` is the host
/// threads the launch starts (1 for Sequential, which plans no grid). A
/// block method is planned exactly as its solver plans it; for MVC that
/// costs a greedy pass over `g` only when the stack depth decides it.
const char* check_solve(const graph::CsrGraph& g, Method method,
                        const ParallelConfig& config, int* threads);

}  // namespace gvc::parallel
