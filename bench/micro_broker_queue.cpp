// Micro-benchmarks (google-benchmark) for the worklist substrate: broker
// queue push/pop throughput — uncontended, contended, and with degree-array
// payloads — plus the copy-mode descent's defer/next. These are the §V-D
// "work distribution" primitives; their cost is what the donation threshold
// amortizes.

#include <benchmark/benchmark.h>

#include <thread>

#include "device/occupancy.hpp"  // degree_array_bytes
#include "graph/generators.hpp"
#include "vc/degree_array.hpp"
#include "vc/descent.hpp"
#include "vc/reductions.hpp"
#include "worklist/broker_queue.hpp"
#include "worklist/global_worklist.hpp"
#include "worklist/steal_deque.hpp"

namespace {

using gvc::worklist::BrokerQueue;

void BM_BrokerQueue_PushPop_Int(benchmark::State& state) {
  BrokerQueue<int> q(1024);
  int v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.try_push(int{42}));
    benchmark::DoNotOptimize(q.try_pop(v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrokerQueue_PushPop_Int);

void BM_BrokerQueue_PushPop_DegreeArray(benchmark::State& state) {
  const auto n = static_cast<gvc::graph::Vertex>(state.range(0));
  auto g = gvc::graph::gnp(n, 0.1, 7);
  BrokerQueue<gvc::vc::DegreeArray> q(64);
  gvc::vc::DegreeArray out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.try_push(gvc::vc::DegreeArray(g)));
    benchmark::DoNotOptimize(q.try_pop(out));
  }
  state.SetBytesProcessed(state.iterations() *
                          gvc::device::degree_array_bytes(n));
}
BENCHMARK(BM_BrokerQueue_PushPop_DegreeArray)->Arg(64)->Arg(512)->Arg(4096);

void BM_BrokerQueue_Contended(benchmark::State& state) {
  // One producer + one consumer thread hammering alongside the timed one.
  BrokerQueue<int> q(4096);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    int v;
    while (!stop.load(std::memory_order_relaxed)) {
      q.try_push(int{1});
      q.try_pop(v);
    }
  });
  int v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.try_push(int{2}));
    benchmark::DoNotOptimize(q.try_pop(v));
  }
  stop.store(true);
  churn.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrokerQueue_Contended);

void BM_Descent_CopyDeferNext(benchmark::State& state) {
  // One kCopy branch round trip: defer the neighbors child into a stack
  // slot, apply the vmax child in place, then move back to the deferred
  // child. On a cycle the branch itself touches four vertices, so the time
  // is the degree-array copies.
  const auto n = static_cast<gvc::graph::Vertex>(state.range(0));
  auto g = gvc::graph::cycle(n);
  gvc::vc::ReduceWorkspace ws;
  gvc::vc::Descent descent(g, gvc::vc::BranchStateMode::kCopy, 8, ws);
  const gvc::vc::DegreeArray root(g);
  const gvc::graph::Vertex vmax = root.max_degree_vertex();
  gvc::vc::DegreeArray da;
  for (auto _ : state) {
    da = root;
    descent.branch(da, vmax);
    benchmark::DoNotOptimize(descent.next(da));
  }
  state.SetBytesProcessed(state.iterations() *
                          gvc::device::degree_array_bytes(n));
}
BENCHMARK(BM_Descent_CopyDeferNext)->Arg(64)->Arg(512)->Arg(4096);

void BM_GlobalWorklist_DonateRemove(benchmark::State& state) {
  auto g = gvc::graph::gnp(256, 0.05, 11);
  gvc::worklist::GlobalWorklist wl(1024, 512, 1);
  gvc::vc::DegreeArray out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl.try_donate(gvc::vc::DegreeArray(g)));
    benchmark::DoNotOptimize(wl.remove(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GlobalWorklist_DonateRemove);

// The WorkStealing baseline's per-op costs, on the same footing as the
// broker-queue numbers above: the owner's uncontended push/pop path and the
// thief's steal path (each op copies/moves one O(|V|) degree array, like a
// stack slot).
void BM_StealDeque_OwnerPushPop(benchmark::State& state) {
  const auto n = static_cast<gvc::graph::Vertex>(state.range(0));
  auto g = gvc::graph::gnp(n, 0.1, 11);
  gvc::worklist::StealDeque deque(n, 64);
  gvc::vc::DegreeArray node(g);
  gvc::vc::DegreeArray out;
  for (auto _ : state) {
    deque.push_bottom(node);
    benchmark::DoNotOptimize(deque.try_pop_bottom(out));
  }
}
BENCHMARK(BM_StealDeque_OwnerPushPop)->Arg(64)->Arg(512)->Arg(4096);

void BM_StealDeque_StealPath(benchmark::State& state) {
  const auto n = static_cast<gvc::graph::Vertex>(state.range(0));
  auto g = gvc::graph::gnp(n, 0.1, 11);
  gvc::worklist::StealDeque deque(n, 64);
  gvc::vc::DegreeArray node(g);
  gvc::vc::DegreeArray out;
  for (auto _ : state) {
    deque.push_bottom(node);
    benchmark::DoNotOptimize(deque.try_steal_top(out));
  }
}
BENCHMARK(BM_StealDeque_StealPath)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
