// micro_obs_overhead — proves the obs subsystem's "zero when disabled"
// budget and measures what enabling costs (plain main: unlike the other
// micro benches this one must not depend on google-benchmark, because it
// runs in CI as the acceptance gate for the observability PR).
//
// Two measurements:
//
//   1. Hook cost. A tight loop over trace_instant_sampled / a Counter add,
//      in ns/op. With no session active the trace hook is one relaxed load
//      and a predicted-not-taken branch — low single-digit ns on anything
//      modern; that number is the disabled-path cost every per-node solver
//      hook pays.
//
//   2. Activity clock cost. An enabled util::ActivityScope (two reads of
//      the activity clock plus one accumulator add), in ns/scope, against
//      one util::thread_cpu_ns() read in the same run. Every reduce sweep
//      and branch step opens a scope on a sampled node, so the scope must
//      stay cheaper than a single read of the thread CPU clock (a syscall on
//      Linux) — an in-run ratio, robust on noisy runners. Also an
//      ActivityScope on a closed sample gate, the cost every unsampled node
//      pays per scope: one load and a branch, held to the disabled-hook
//      budget.
//
// What tracing costs a whole solve is the ladder's traced exact_solve row
// trace.overhead_frac (perfbench/), not a row here.
//
//   micro_obs_overhead [--hook-iters N] [--out FILE] [--max-disabled-ns X]
//
// --out writes a machine-readable summary. Exit 1 if the disabled-path hook
// cost or the closed-gate ActivityScope cost exceeds --max-disabled-ns (0
// disables those gates), or if an ActivityScope costs as much as one
// thread_cpu_ns() read; exit 64 with the usage line on a flag it does not
// declare.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace gvc;

/// ns/op of `fn` over `iters` calls, best of 3 passes (best-of filters
/// scheduler noise out of a nanosecond-scale measurement).
template <typename Fn>
double hook_ns(std::uint64_t iters, Fn&& fn) {
  double best = 1e18;
  for (int pass = 0; pass < 3; ++pass) {
    util::WallTimer t;
    for (std::uint64_t i = 0; i < iters; ++i) fn(i);
    best = std::min(best, t.seconds() * 1e9 / static_cast<double>(iters));
  }
  return best;
}

/// The flags main reads; any other exits 64 with the usage line.
constexpr std::string_view kFlags[] = {"hook-iters", "out", "max-disabled-ns"};

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  for (const std::string& flag : args.flags()) {
    if (std::find(std::begin(kFlags), std::end(kFlags), flag) !=
        std::end(kFlags))
      continue;
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    std::fprintf(stderr,
                 "usage: %s [--hook-iters N] [--out FILE] "
                 "[--max-disabled-ns X]\n",
                 args.program().c_str());
    return 64;
  }
  const std::uint64_t hook_iters =
      static_cast<std::uint64_t>(args.get_int("hook-iters", 200'000'000));
  const double max_disabled_ns = args.get_double("max-disabled-ns", 3.0);
  const std::string out_path = args.get("out", "");

  // ---- 1: per-hook disabled cost -------------------------------------------
  // The sink defeats dead-code elimination; with no session active each
  // call is the tracing() relaxed load + branch.
  const double instant_off_ns = hook_ns(hook_iters, [](std::uint64_t i) {
    obs::trace_instant_sampled(obs::TraceCat::kReduce, "bench", "i",
                               static_cast<std::int64_t>(i));
  });
  obs::Counter counter;
  const double counter_ns = hook_ns(hook_iters, [&](std::uint64_t) {
    counter.add();
  });

  std::printf("hook cost: trace_instant_sampled (disabled) %.3f ns/op, "
              "Counter::add %.3f ns/op  (%llu iters)\n",
              instant_off_ns, counter_ns,
              static_cast<unsigned long long>(hook_iters));

  // ---- 2: activity clock cost ----------------------------------------------
  // Fewer iterations than the hooks: a thread CPU clock read costs hundreds
  // of ns.
  const std::uint64_t clock_iters = 1'000'000;
  util::ActivityAccumulator acc;
  const double scope_ns = hook_ns(clock_iters, [&](std::uint64_t) {
    util::ActivityScope scope(acc, util::Activity::kFindMaxDegree);
  });
  volatile std::uint64_t clock_sink = 0;
  const double cpu_read_ns = hook_ns(clock_iters, [&](std::uint64_t) {
    clock_sink = clock_sink + util::thread_cpu_ns();
  });
  // A closed gate: the second node of a block is not sampled. The
  // accumulator is reached through a volatile pointer, as the solver
  // reaches it through BlockSearch's, so the gate load stays in the loop.
  util::ActivityAccumulator closed;
  closed.begin_node();
  closed.begin_node();
  GVC_CHECK(!closed.gate_open());
  util::ActivityAccumulator* volatile closed_acc = &closed;
  const double closed_scope_ns = hook_ns(hook_iters, [&](std::uint64_t) {
    util::ActivityScope scope(*closed_acc, util::Activity::kFindMaxDegree);
  });
  GVC_CHECK(closed.total_ns() == 0);
  std::printf("activity clock: ActivityScope %.1f ns/scope, one "
              "thread_cpu_ns() read %.1f ns  (%llu iters, %.3f s charged)\n",
              scope_ns, cpu_read_ns,
              static_cast<unsigned long long>(clock_iters),
              static_cast<double>(acc.total_ns()) * 1e-9);
  std::printf("activity clock: ActivityScope on a closed gate %.3f ns/scope  "
              "(%llu iters)\n",
              closed_scope_ns, static_cast<unsigned long long>(hook_iters));

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    GVC_CHECK_MSG(os.good(), "cannot write --out file");
    os << "{\n"
       << "  \"bench\": \"micro_obs_overhead\",\n"
       << "  \"hook_iters\": " << hook_iters << ",\n"
       << "  \"trace_instant_disabled_ns\": " << instant_off_ns << ",\n"
       << "  \"counter_add_ns\": " << counter_ns << ",\n"
       << "  \"activity_scope_ns\": " << scope_ns << ",\n"
       << "  \"activity_scope_closed_ns\": " << closed_scope_ns << ",\n"
       << "  \"thread_cpu_read_ns\": " << cpu_read_ns << "\n"
       << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (max_disabled_ns > 0.0 && instant_off_ns > max_disabled_ns) {
    std::fprintf(stderr,
                 "FAIL: disabled trace hook costs %.3f ns/op "
                 "(budget %.1f ns) — the disabled path must stay one "
                 "relaxed load\n",
                 instant_off_ns, max_disabled_ns);
    return 1;
  }
  if (max_disabled_ns > 0.0 && closed_scope_ns > max_disabled_ns) {
    std::fprintf(stderr,
                 "FAIL: an ActivityScope on a closed gate costs %.3f ns "
                 "(budget %.1f ns) — an unsampled node must not read the "
                 "clock\n",
                 closed_scope_ns, max_disabled_ns);
    return 1;
  }
  if (scope_ns >= cpu_read_ns) {
    std::fprintf(stderr,
                 "FAIL: an ActivityScope costs %.1f ns, not less than one "
                 "thread_cpu_ns() read (%.1f ns) — activities must be "
                 "charged on the monotonic clock\n",
                 scope_ns, cpu_read_ns);
    return 1;
  }
  return 0;
}
