// micro_obs_overhead — proves the obs subsystem's "zero when disabled"
// budget and measures what enabling costs (plain main: unlike the other
// micro benches this one must not depend on google-benchmark, because it
// runs in CI as the acceptance gate for the observability PR).
//
// Three measurements:
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
//   3. Solve throughput. The same Hybrid solve on a catalog instance,
//      repeated for --reps wall-clock runs, in three modes: hooks off (no
//      session — the production default), tracing on at the default 1-in-64
//      sampling, and tracing on unsampled (sample_every=1, the worst
//      case). The acceptance criterion is modes[hooks_off] within 2% of a
//      GVC_OBS_DISABLED build; since one binary cannot contain both, the
//      proxy enforced here is hook-cost <= --max-disabled-ns (default 3ns)
//      AND hooks-off throughput, which CI compares across runs.
//
//   micro_obs_overhead [--instance NAME] [--scale S] [--reps N]
//                      [--hook-iters N] [--out FILE] [--max-disabled-ns X]
//
// --out writes a machine-readable summary (BENCH_PR7.json at the repo root
// is a committed capture, taken before the activity clock rows existed).
// Exit 1 if the disabled-path hook cost or the closed-gate ActivityScope
// cost exceeds --max-disabled-ns (0 disables those gates), or if an
// ActivityScope costs as much as one thread_cpu_ns() read.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness/catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/solver.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
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

struct Mode {
  const char* name;
  double median_s = 0.0;
  double best_s = 0.0;
};

double median_solve_seconds(const graph::CsrGraph& g,
                            const parallel::ParallelConfig& cfg, int reps,
                            double* best_out) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  parallel::SolveWorkspace ws;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer t;
    parallel::ParallelResult res = parallel::solve(
        g, parallel::Method::kHybrid, cfg, /*control=*/nullptr, &ws);
    GVC_CHECK(res.best_size >= 0);
    samples.push_back(t.seconds());
  }
  *best_out = util::min_of(samples);
  return util::quantile(samples, 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 9));
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

  // ---- 3: solve throughput under the three modes ---------------------------
  const std::string inst_name = args.get("instance", "p_hat_300_1");
  const harness::Scale scale =
      harness::parse_scale(args.get("scale", "smoke"));
  std::vector<harness::Instance> catalog = harness::paper_catalog(scale);
  const harness::Instance& inst = harness::find_instance(catalog, inst_name);
  parallel::ParallelConfig cfg;
  cfg.device = device::DeviceSpec::host_scaled();

  Mode modes[3] = {{"hooks_off"}, {"tracing_sampled"}, {"tracing_unsampled"}};
  {  // warm-up: graph load, workspace shapes, frequency scaling
    double best;
    median_solve_seconds(inst.graph(), cfg, 2, &best);
  }
  modes[0].median_s =
      median_solve_seconds(inst.graph(), cfg, reps, &modes[0].best_s);

  obs::TraceOptions topts;
  topts.sample_every = 64;
  GVC_CHECK(obs::trace_start(topts));
  modes[1].median_s =
      median_solve_seconds(inst.graph(), cfg, reps, &modes[1].best_s);
  GVC_CHECK(obs::trace_stop());

  topts.sample_every = 1;
  GVC_CHECK(obs::trace_start(topts));
  modes[2].median_s =
      median_solve_seconds(inst.graph(), cfg, reps, &modes[2].best_s);
  GVC_CHECK(obs::trace_stop());

  for (const Mode& m : modes)
    std::printf("%-18s median %.6fs  best %.6fs  (x%.3f vs hooks_off)\n",
                m.name, m.median_s, m.best_s,
                m.median_s / modes[0].median_s);

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    GVC_CHECK_MSG(os.good(), "cannot write --out file");
    os << "{\n"
       << "  \"bench\": \"micro_obs_overhead\",\n"
       << "  \"instance\": \"" << inst_name << "\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"hook_iters\": " << hook_iters << ",\n"
       << "  \"trace_instant_disabled_ns\": " << instant_off_ns << ",\n"
       << "  \"counter_add_ns\": " << counter_ns << ",\n"
       << "  \"activity_scope_ns\": " << scope_ns << ",\n"
       << "  \"activity_scope_closed_ns\": " << closed_scope_ns << ",\n"
       << "  \"thread_cpu_read_ns\": " << cpu_read_ns << ",\n"
       << "  \"modes\": {\n";
    for (int i = 0; i < 3; ++i)
      os << "    \"" << modes[i].name << "\": {\"median_s\": "
         << modes[i].median_s << ", \"best_s\": " << modes[i].best_s
         << ", \"ratio_vs_hooks_off\": "
         << modes[i].median_s / modes[0].median_s << "}"
         << (i < 2 ? "," : "") << "\n";
    os << "  }\n}\n";
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
