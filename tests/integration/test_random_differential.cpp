// Randomized differential harness for undo-trail branching: across a seeded
// sweep of generated graphs (Erdős–Rényi, power-law, grid-like families ×
// sizes), BranchStateMode::kUndoTrail must be BIT-IDENTICAL to kCopy —
// same cover size, same node count, valid cover — for the Sequential solver
// and all five parallel methods.
//
// Determinism discipline: node-count equality is only meaningful when a
// traversal is reproducible, so the per-method comparisons run on a
// serialized virtual device (one SM, one resident block, grid 1) where
// every engine — including the donation and steal paths, whose gates the
// trail consults before materializing snapshots — executes its exact
// single-block schedule. A separate multi-block sweep then checks the
// optimum and cover validity under real concurrency.
//
// Reproduction: every assertion is wrapped in a SCOPED_TRACE carrying the
// family/size/seed triple, so a failure names the exact generator call.
// Sweep breadth scales with the GVC_DIFF_SEEDS environment knob (seeds per
// family × size cell; CI caps it to stay inside the job budget, local runs
// can raise it for thousands of graphs).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../test_support.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "parallel/solver.hpp"
#include "service/solve_service.hpp"
#include "vc/sequential.hpp"

namespace gvc {
namespace {

using graph::CsrGraph;
using test_support::env_knob;

struct Family {
  const char* name;
  CsrGraph (*make)(graph::Vertex n, std::uint64_t seed);
};

// Per-seed parameter cycling keeps every family producing a spread of tree
// shapes: sparse instances die in the reductions (the trail's dirty-log
// interaction), dense ones branch for real (the rollback hot path).
const Family kFamilies[] = {
    {"erdos-renyi",
     [](graph::Vertex n, std::uint64_t seed) {
       return graph::gnp(n, 0.16 + 0.1 * static_cast<double>(seed % 4), seed);
     }},
    {"power-law",
     [](graph::Vertex n, std::uint64_t seed) {
       return graph::barabasi_albert(n, 2 + static_cast<int>(seed % 3), seed);
     }},
    {"grid",
     [](graph::Vertex n, std::uint64_t seed) {
       // Alternate the quasi-planar random grid with the exact 2D lattice
       // plus rewired shortcuts (small world), both |E|/|V| ≈ grid regime.
       if (seed % 2 == 0) return graph::power_grid(n, 0.35, seed);
       return graph::watts_strogatz(n, 2, 0.3, seed);
     }},
    {"dense",
     [](graph::Vertex n, std::uint64_t seed) {
       // Complemented p_hat: the paper's hard, degree-spread family.
       return graph::complement(graph::p_hat(n, 0.3, 0.8, seed));
     }},
};

const int kSizes[] = {18, 26, 34};

std::string trace(const Family& family, int size, int seed) {
  return std::string("family=") + family.name + " size=" +
         std::to_string(size) + " seed=" + std::to_string(seed);
}

/// One-SM, one-resident-block device: every launch degenerates to blocks
/// executed in id order on a single thread, making node counts exact and
/// reproducible for all five methods.
device::DeviceSpec serialized_device() {
  device::DeviceSpec d = device::DeviceSpec::host_scaled();
  d.num_sms = 1;
  d.max_blocks_per_sm = 1;
  return d;
}

parallel::ParallelConfig serialized_config(vc::BranchStateMode mode) {
  parallel::ParallelConfig c;
  c.device = serialized_device();
  c.grid_override = 1;
  c.start_depth = 2;
  c.worklist_capacity = 64;
  c.branch_state = mode;
  return c;
}

TEST(RandomDifferential, SequentialTrailBitIdenticalAcrossGeneratedGraphs) {
  const int seeds = env_knob("GVC_DIFF_SEEDS", 60);
  for (const Family& family : kFamilies) {
    for (int size : kSizes) {
      for (int seed = 0; seed < seeds; ++seed) {
        SCOPED_TRACE(trace(family, size, seed));
        CsrGraph g = family.make(size, static_cast<std::uint64_t>(seed));

        // Every rule semantics, so a trail bug that only shows under one
        // candidate feed or under the sweep's snapshots is caught.
        for (vc::ReduceSemantics semantics :
             {vc::ReduceSemantics::kIncremental, vc::ReduceSemantics::kSerial,
              vc::ReduceSemantics::kParallelSweep}) {
          vc::SequentialConfig copy_cfg;
          copy_cfg.semantics = semantics;
          copy_cfg.branch_state = vc::BranchStateMode::kCopy;
          vc::SequentialConfig trail_cfg = copy_cfg;
          trail_cfg.branch_state = vc::BranchStateMode::kUndoTrail;

          vc::SolveResult a = vc::solve_sequential(g, copy_cfg);
          vc::SolveResult b = vc::solve_sequential(g, trail_cfg);
          ASSERT_EQ(a.best_size, b.best_size)
              << "semantics " << static_cast<int>(semantics);
          ASSERT_EQ(a.tree_nodes, b.tree_nodes)
              << "tree shape diverged, semantics "
              << static_cast<int>(semantics);
          ASSERT_TRUE(graph::is_vertex_cover(g, b.cover));
          ASSERT_EQ(static_cast<int>(b.cover.size()), b.best_size);
        }
      }
    }
  }
}

TEST(RandomDifferential, EveryMethodBitIdenticalOnSerializedDevice) {
  const int seeds = env_knob("GVC_DIFF_SEEDS", 60) / 10 + 2;
  for (const Family& family : kFamilies) {
    for (int size : kSizes) {
      for (int seed = 0; seed < seeds; ++seed) {
        SCOPED_TRACE(trace(family, size, seed));
        CsrGraph g = family.make(size, static_cast<std::uint64_t>(seed) * 61 + 5);

        vc::SequentialConfig ref;
        const int expected = vc::solve_sequential(g, ref).best_size;

        for (parallel::Method method : parallel::all_methods()) {
          parallel::ParallelResult copy = parallel::solve(
              g, method, serialized_config(vc::BranchStateMode::kCopy));
          parallel::ParallelResult trail = parallel::solve(
              g, method, serialized_config(vc::BranchStateMode::kUndoTrail));
          ASSERT_EQ(copy.best_size, expected) << parallel::method_name(method);
          ASSERT_EQ(trail.best_size, expected) << parallel::method_name(method);
          ASSERT_EQ(copy.tree_nodes, trail.tree_nodes)
              << parallel::method_name(method)
              << ": tree shape diverged between kCopy and kUndoTrail";
          // Both modes run one donation protocol, so the worklist traffic
          // and the harvested cover match too, not just the tree size.
          ASSERT_EQ(copy.worklist.adds, trail.worklist.adds)
              << parallel::method_name(method);
          ASSERT_EQ(copy.worklist.removes, trail.worklist.removes)
              << parallel::method_name(method);
          ASSERT_EQ(copy.cover, trail.cover) << parallel::method_name(method);
          ASSERT_TRUE(graph::is_vertex_cover(g, trail.cover))
              << parallel::method_name(method);
        }
      }
    }
  }
}

// Golden pin: the mode-vs-mode diffs above cannot see a change that shifts
// both modes the same way, so the serialized trees of four fixed graphs
// are pinned per method × mode. A small worklist makes Hybrid defer most
// neighbors children locally instead of donating them. The first three
// graphs are dense enough to carry adjacency bitset rows (graph/csr.hpp);
// the power grid is not, so both neighbor-walk paths are pinned.
TEST(RandomDifferential, SerializedTreesMatchPinnedValues) {
  struct Pinned {
    parallel::Method method;
    std::int64_t tree_nodes;
    int best_size;
    std::uint64_t worklist_adds;
  };
  struct Case {
    const char* name;
    CsrGraph graph;
    std::vector<Pinned> want;
  };
  using parallel::Method;
  const Case cases[] = {
      {"gnp(48, 0.2, 1)",
       graph::gnp(48, 0.2, 1),
       {{Method::kSequential, 241, 33, 0},
        {Method::kStackOnly, 246, 33, 0},
        {Method::kHybrid, 233, 33, 12},
        {Method::kGlobalOnly, 235, 33, 53},
        {Method::kWorkStealing, 241, 33, 121}}},
      {"barabasi_albert(90, 5, 1)",
       graph::barabasi_albert(90, 5, 1),
       {{Method::kSequential, 65, 52, 0},
        {Method::kStackOnly, 70, 52, 0},
        {Method::kHybrid, 65, 52, 7},
        {Method::kGlobalOnly, 71, 52, 41},
        {Method::kWorkStealing, 65, 52, 33}}},
      {"complement(p_hat(44, 0.3, 0.8, 5))",
       graph::complement(graph::p_hat(44, 0.3, 0.8, 5)),
       {{Method::kSequential, 119, 36, 0},
        {Method::kStackOnly, 124, 36, 0},
        {Method::kHybrid, 119, 36, 7},
        {Method::kGlobalOnly, 143, 36, 65},
        {Method::kWorkStealing, 119, 36, 60}}},
      {"power_grid(130, 0.8, 2)",
       graph::power_grid(130, 0.8, 2),
       {{Method::kSequential, 203, 69, 0},
        {Method::kStackOnly, 208, 69, 0},
        {Method::kHybrid, 203, 69, 17},
        {Method::kGlobalOnly, 203, 69, 55},
        {Method::kWorkStealing, 203, 69, 102}}},
  };
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(cases[i].graph.has_rows());
  ASSERT_FALSE(cases[3].graph.has_rows());
  for (const Case& c : cases) {
    for (const Pinned& want : c.want) {
      for (vc::BranchStateMode mode : vc::all_branch_state_modes()) {
        SCOPED_TRACE(std::string(c.name) + " " +
                     parallel::method_name(want.method) + " " +
                     vc::branch_state_mode_name(mode));
        parallel::ParallelConfig config = serialized_config(mode);
        config.worklist_capacity = 8;
        const parallel::ParallelResult r =
            parallel::solve(c.graph, want.method, config);
        EXPECT_EQ(r.tree_nodes, want.tree_nodes);
        EXPECT_EQ(r.best_size, want.best_size);
        EXPECT_EQ(r.worklist.adds, want.worklist_adds);
      }
    }
  }
}

TEST(RandomDifferential, IncrementalBitIdenticalToSerialOnSerializedDevice) {
  // The one incremental engine against Fig. 1's textbook rules: for every
  // method and every subset of the three rules (the engine reads the
  // RuleSet at run time), kIncremental must reproduce kSerial's tree
  // EXACTLY — same optimum, node count, worklist traffic and cover — on
  // the serialized device, where counts are deterministic.
  const int seeds = env_knob("GVC_DIFF_SEEDS", 60) / 10 + 2;
  for (const Family& family : kFamilies) {
    for (int size : kSizes) {
      for (int seed = 0; seed < seeds; ++seed) {
        SCOPED_TRACE(trace(family, size, seed));
        CsrGraph g = family.make(size, static_cast<std::uint64_t>(seed) * 29 + 3);

        for (parallel::Method method : parallel::all_methods()) {
          for (unsigned mask = 0; mask < 8; ++mask) {
            SCOPED_TRACE(std::string(parallel::method_name(method)) +
                         " rules=" + std::to_string(mask));
            parallel::ParallelConfig serial =
                serialized_config(vc::BranchStateMode::kUndoTrail);
            serial.semantics = vc::ReduceSemantics::kSerial;
            serial.rules.degree_one = (mask & 1u) != 0;
            serial.rules.degree_two_triangle = (mask & 2u) != 0;
            serial.rules.high_degree = (mask & 4u) != 0;
            parallel::ParallelConfig incremental = serial;
            incremental.semantics = vc::ReduceSemantics::kIncremental;

            const parallel::ParallelResult want =
                parallel::solve(g, method, serial);
            const parallel::ParallelResult got =
                parallel::solve(g, method, incremental);
            ASSERT_EQ(got.tree_nodes, want.tree_nodes)
                << "tree shape diverged from kSerial";
            ASSERT_EQ(got.best_size, want.best_size);
            ASSERT_EQ(got.worklist.adds, want.worklist.adds);
            ASSERT_EQ(got.cover, want.cover);
            ASSERT_TRUE(graph::is_vertex_cover(g, got.cover));
          }
        }
      }
    }
  }
}

TEST(RandomDifferential, MultiBlockModesAgreeOnTheOptimum) {
  // Real concurrency: node counts are timing-dependent, so this sweep only
  // pins the answer — both modes must reach the same optimum with a valid
  // cover while donations and steals actually race.
  const int seeds = env_knob("GVC_DIFF_SEEDS", 60) / 20 + 2;
  for (const Family& family : kFamilies) {
    for (int size : kSizes) {
      for (int seed = 0; seed < seeds; ++seed) {
        SCOPED_TRACE(trace(family, size, seed));
        CsrGraph g = family.make(size, static_cast<std::uint64_t>(seed) * 97 + 11);

        vc::SequentialConfig ref;
        const int expected = vc::solve_sequential(g, ref).best_size;

        for (parallel::Method method : parallel::all_methods()) {
          for (vc::BranchStateMode mode : vc::all_branch_state_modes()) {
            parallel::ParallelConfig c;
            c.device = device::DeviceSpec::host_scaled();
            c.grid_override = 3;
            c.start_depth = 3;
            c.worklist_capacity = 64;
            c.branch_state = mode;
            parallel::ParallelResult r = parallel::solve(g, method, c);
            ASSERT_EQ(r.best_size, expected)
                << parallel::method_name(method) << " mode "
                << vc::branch_state_mode_name(mode);
            ASSERT_TRUE(graph::is_vertex_cover(g, r.cover));
          }
        }
      }
    }
  }
}

// Multi-device sharding differential (PR 10): a service that splits one
// N-SM machine into multiple virtual devices (with tier-1 job stealing ON)
// must serve results BIT-IDENTICAL to the flat N-worker service over the
// same machine — same outcome, same cover size, same cover, and, because
// every worker slice is a one-SM/one-block device (serialized schedule),
// the same tree node count — for all five methods. This is the proof that
// topology and job stealing change WHERE a job runs and nothing else: the
// pinned config travels with the job, worker slices of the two layouts are
// numerically identical, and the config hash excludes the slice name.
TEST(RandomDifferential, MultiDeviceShardingBitIdenticalToSingleDevice) {
  const int seeds = env_knob("GVC_DIFF_SEEDS", 60) / 20 + 2;
  constexpr int kWorkers = 4;

  device::DeviceSpec machine = device::DeviceSpec::host_scaled();
  machine.num_sms = kWorkers;
  machine.max_blocks_per_sm = 1;  // 1-SM slices => grid 1 => serialized

  service::ServiceOptions flat;
  flat.num_workers = kWorkers;
  flat.device = machine;
  service::ServiceOptions sharded = flat;
  // Two 2-SM devices, two workers each: the recursive split lands on the
  // same 1-SM worker slices as the flat partition, and each device has a
  // sibling shard so tier-1 steals actually occur under backlog.
  sharded.num_devices = 2;
  sharded.steal_tiers = service::StealTiers::kJobs;

  service::SolveService a(flat);
  service::SolveService b(sharded);
  ASSERT_EQ(b.num_devices(), 2);
  for (int w = 0; w < kWorkers; ++w) {
    // The recursive partition must land on the same numerics, or the two
    // layouts would execute (and cache) different configs.
    ASSERT_EQ(a.worker_device(w).num_sms, b.worker_device(w).num_sms);
    ASSERT_EQ(a.worker_device(w).global_mem_bytes,
              b.worker_device(w).global_mem_bytes);
  }

  for (const Family& family : kFamilies) {
    for (int size : kSizes) {
      for (int seed = 0; seed < seeds; ++seed) {
        SCOPED_TRACE(trace(family, size, seed));
        auto g = std::make_shared<CsrGraph>(
            family.make(size, static_cast<std::uint64_t>(seed) * 131 + 17));

        // All five method jobs go in flight on the sharded side at once —
        // the backlog is what makes tier-1 steals happen; bit-identity
        // must hold no matter which worker ends up running a job.
        std::vector<service::JobTicket> in_flight;
        for (parallel::Method method : parallel::all_methods()) {
          service::JobSpec spec;
          spec.graph = g;
          spec.method = method;
          spec.config.start_depth = 2;
          spec.config.worklist_capacity = 64;
          in_flight.push_back(b.submit(std::move(spec)));
        }
        std::size_t i = 0;
        for (parallel::Method method : parallel::all_methods()) {
          service::JobSpec spec;
          spec.graph = g;
          spec.method = method;
          spec.config.start_depth = 2;
          spec.config.worklist_capacity = 64;
          const service::JobTicket ta = a.submit(std::move(spec));
          const parallel::ParallelResult& ra = a.wait(ta);
          const parallel::ParallelResult& rb = b.wait(in_flight[i++]);
          ASSERT_EQ(ra.outcome, rb.outcome) << parallel::method_name(method);
          ASSERT_EQ(ra.best_size, rb.best_size)
              << parallel::method_name(method);
          ASSERT_EQ(ra.tree_nodes, rb.tree_nodes)
              << parallel::method_name(method)
              << ": tree shape diverged between flat and sharded layouts";
          ASSERT_EQ(ra.cover, rb.cover) << parallel::method_name(method);
        }
      }
    }
  }
  b.shutdown();
  const service::ServiceStats sb = b.stats();
  EXPECT_EQ(sb.steal_nodes, 0u);  // kJobs: no node migration
}

// Tier 2 (subtree-node migration) is NOT schedule-preserving — a migrated
// node's subtree is explored by the thief — so the contract drops to:
// same optimum, valid cover, every migrated node settled exactly once.
TEST(RandomDifferential, NodeMigrationPreservesTheOptimum) {
  const int seeds = env_knob("GVC_DIFF_SEEDS", 60) / 20 + 2;

  service::ServiceOptions opts;
  opts.num_workers = 4;
  opts.num_devices = 2;
  opts.steal_tiers = service::StealTiers::kJobsAndNodes;
  service::SolveService svc(opts);

  struct Expected {
    std::shared_ptr<CsrGraph> graph;
    int best = 0;
    service::JobTicket ticket;
  };
  std::vector<Expected> cases;
  for (const Family& family : kFamilies) {
    for (int size : kSizes) {
      for (int seed = 0; seed < seeds; ++seed) {
        Expected e;
        e.graph = std::make_shared<CsrGraph>(
            family.make(size, static_cast<std::uint64_t>(seed) * 211 + 13));
        vc::SequentialConfig ref;
        e.best = vc::solve_sequential(*e.graph, ref).best_size;
        // Hybrid and WorkStealing are the exporting methods; alternate.
        service::JobSpec spec;
        spec.graph = e.graph;
        spec.method = (seed % 2 == 0) ? parallel::Method::kHybrid
                                      : parallel::Method::kWorkStealing;
        spec.config.start_depth = 2;
        spec.config.worklist_capacity = 64;
        e.ticket = svc.submit(std::move(spec));  // all in flight at once
        cases.push_back(std::move(e));
      }
    }
  }
  for (const Expected& e : cases) {
    const parallel::ParallelResult& r = svc.wait(e.ticket);
    ASSERT_EQ(r.outcome, vc::Outcome::kOptimal);
    ASSERT_EQ(r.best_size, e.best);
    ASSERT_TRUE(graph::is_vertex_cover(*e.graph, r.cover));
  }
  svc.shutdown();

  const service::ServiceStats s = svc.stats();
  // Conservation even when migration did fire: every export settled.
  EXPECT_EQ(s.broker.runs + s.broker.reclaims + s.broker.abandons,
            s.broker.exports);
  EXPECT_EQ(s.steal_nodes, s.broker.runs);
}

TEST(RandomDifferential, PvcIndicatorAgreesAcrossModes) {
  const int seeds = env_knob("GVC_DIFF_SEEDS", 60) / 10 + 2;
  for (const Family& family : kFamilies) {
    for (int size : kSizes) {
      for (int seed = 0; seed < seeds; ++seed) {
        SCOPED_TRACE(trace(family, size, seed));
        CsrGraph g = family.make(size, static_cast<std::uint64_t>(seed) * 43 + 7);

        vc::SequentialConfig ref;
        const int min = vc::solve_sequential(g, ref).best_size;
        if (min < 2) continue;

        for (int k : {min - 1, min}) {
          for (vc::BranchStateMode mode : vc::all_branch_state_modes()) {
            // Sequential (exact node parity checked above) plus Hybrid,
            // the method whose donation path PVC exercises hardest.
            vc::SequentialConfig sc;
            sc.problem = vc::Problem::kPvc;
            sc.k = k;
            sc.branch_state = mode;
            vc::SolveResult s = vc::solve_sequential(g, sc);
            ASSERT_EQ(s.has_cover(), k >= min)
                << "sequential k=" << k << " mode "
                << vc::branch_state_mode_name(mode);

            parallel::ParallelConfig c = serialized_config(mode);
            c.problem = vc::Problem::kPvc;
            c.k = k;
            parallel::ParallelResult r =
                parallel::solve(g, parallel::Method::kHybrid, c);
            ASSERT_EQ(r.has_cover(), k >= min)
                << "hybrid k=" << k << " mode "
                << vc::branch_state_mode_name(mode);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gvc
