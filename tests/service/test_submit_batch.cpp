#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "graph/corpus.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "parallel/solver.hpp"
#include "service/solve_service.hpp"

namespace gvc::service {
namespace {

using parallel::Method;
using parallel::ParallelConfig;
using parallel::ParallelResult;

std::string make_gspan_corpus(int count, unsigned base_seed) {
  std::ostringstream out;
  for (int i = 0; i < count; ++i)
    graph::write_gspan(out, graph::gnp(8 + (i % 11), 0.3, base_seed + i),
                       std::to_string(i));
  return out.str();
}

/// Collects every per-graph record of a submission, in corpus order.
std::vector<vc::SolveResult> collect(SolveService& svc,
                                     const CorpusSubmission& sub) {
  std::vector<vc::SolveResult> all;
  for (const auto& ticket : sub.tickets) {
    svc.wait(ticket);
    const auto& results = ticket.state->batch_results();
    all.insert(all.end(), results.begin(), results.end());
  }
  return all;
}

// The headline differential: every per-graph record of a corpus submission
// is bit-identical to an individual kSequential solve of that graph.
TEST(SubmitBatch, BitIdenticalToIndividualSolves) {
  const std::string corpus = make_gspan_corpus(60, 7000);

  ServiceOptions opts;
  opts.num_workers = 3;
  opts.corpus_chunk_size = 16;
  opts.partition_device = false;
  SolveService svc(opts);

  std::istringstream in(corpus);
  graph::CorpusReader reader(in);
  CorpusSubmission sub = svc.submit_batch(reader);
  EXPECT_EQ(sub.graphs_submitted, 60);
  EXPECT_TRUE(sub.skips.empty());
  // 60 graphs / chunks of 16 -> 4 jobs.
  EXPECT_EQ(sub.tickets.size(), 4u);

  auto records = collect(svc, sub);
  ASSERT_EQ(records.size(), 60u);

  std::istringstream in2(corpus);
  graph::CorpusReader reader2(in2);
  std::size_t i = 0;
  while (auto rec = reader2.next()) {
    ParallelResult solo =
        parallel::solve(rec->graph, Method::kSequential, ParallelConfig{});
    ASSERT_LT(i, records.size());
    EXPECT_EQ(records[i].outcome, solo.outcome) << i;
    EXPECT_EQ(records[i].best_size, solo.best_size) << i;
    EXPECT_EQ(records[i].cover, solo.cover) << i;
    EXPECT_EQ(records[i].tree_nodes, solo.tree_nodes) << i;
    ++i;
  }
  EXPECT_EQ(i, 60u);
}

TEST(SubmitBatch, MalformedRecordsAreSkippedAndCounted) {
  std::ostringstream out;
  graph::write_gspan(out, graph::gnp(10, 0.3, 1), "good-0");
  out << "t # broken\nv 0 0\ne 0 99 0\n";  // endpoint out of range
  graph::write_gspan(out, graph::gnp(12, 0.3, 2), "good-1");

  ServiceOptions opts;
  opts.num_workers = 2;
  SolveService svc(opts);

  std::istringstream in(out.str());
  graph::CorpusReader reader(in);
  CorpusSubmission sub = svc.submit_batch(reader);
  EXPECT_EQ(sub.graphs_submitted, 2);
  ASSERT_EQ(sub.skips.size(), 1u);
  EXPECT_EQ(sub.skips[0].reason, "edge endpoint out of range");

  auto records = collect(svc, sub);
  EXPECT_EQ(records.size(), 2u);

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.corpus_graphs_submitted, 2u);
  EXPECT_EQ(stats.corpus_graphs_skipped, 1u);
  EXPECT_EQ(stats.corpus_graphs_solved, 2u);
  EXPECT_GE(stats.corpus_batches, 1u);
}

TEST(SubmitBatch, EmptyCorpusSubmitsNothing) {
  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);
  std::istringstream in("\n# nothing here\n");
  graph::CorpusReader reader(in);
  CorpusSubmission sub = svc.submit_batch(reader);
  EXPECT_TRUE(sub.tickets.empty());
  EXPECT_EQ(sub.graphs_submitted, 0);
  EXPECT_EQ(svc.stats().corpus_batches, 0u);
}

TEST(SubmitBatch, ChunksSpreadAcrossWorkersRoundRobin) {
  ServiceOptions opts;
  opts.num_workers = 4;
  opts.corpus_chunk_size = 5;
  SolveService svc(opts);

  std::istringstream in(make_gspan_corpus(40, 9100));
  graph::CorpusReader reader(in);
  CorpusSubmission sub = svc.submit_batch(reader);
  EXPECT_EQ(sub.tickets.size(), 8u);
  for (const auto& t : sub.tickets) svc.wait(t);

  ServiceStats stats = svc.stats();
  // 8 chunks round-robined over 4 workers: every worker ran exactly 2.
  ASSERT_EQ(stats.jobs_per_worker.size(), 4u);
  for (auto n : stats.jobs_per_worker) EXPECT_EQ(n, 2u);
}

TEST(SubmitBatch, BatchJobsBypassTheResultCache) {
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.corpus_chunk_size = 8;
  SolveService svc(opts);

  // The same graph repeated: a cache-using path would hit after the first.
  std::ostringstream out;
  for (int i = 0; i < 16; ++i)
    graph::write_gspan(out, graph::gnp(10, 0.3, 42), std::to_string(i));
  std::istringstream in(out.str());
  graph::CorpusReader reader(in);
  CorpusSubmission sub = svc.submit_batch(reader);
  auto records = collect(svc, sub);
  EXPECT_EQ(records.size(), 16u);

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache.completed_entries, 0u);
  EXPECT_EQ(stats.cache.inflight_entries, 0u);
  // ...and every record is still the full, correct solve.
  for (const auto& r : records)
    EXPECT_EQ(r.best_size, records.front().best_size);
}

TEST(SubmitBatch, AdmissionRefusalsAreCountedAndSkipTheCache) {
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.corpus_chunk_size = 4;
  SolveService svc(opts);

  // A deadline that has passed by the time each chunk reaches its shard:
  // the push refuses it, so no worker ever sees it.
  CorpusOptions late;
  late.deadline_s = 1e-9;
  {
    std::istringstream in(make_gspan_corpus(8, 900));
    graph::CorpusReader reader(in);
    CorpusSubmission sub = svc.submit_batch(reader, late);
    ASSERT_EQ(sub.tickets.size(), 2u);
    for (const auto& t : sub.tickets) {
      EXPECT_EQ(t.state->wait(), JobStatus::kExpired);
      EXPECT_EQ(svc.wait(t).outcome, vc::Outcome::kDeadline);
      EXPECT_TRUE(t.state->batch_results().empty());
    }
  }
  ServiceStats s = svc.stats();
  EXPECT_EQ(s.expired, 2u);
  std::uint64_t refused_expired = 0, pushed = 0;
  for (const auto& q : s.queues) {
    refused_expired += q.rejected_expired;
    pushed += q.pushed;
  }
  EXPECT_EQ(refused_expired, 2u);
  EXPECT_EQ(pushed, 0u);

  // After shutdown every chunk is refused before it reaches a shard.
  svc.shutdown();
  {
    std::istringstream in(make_gspan_corpus(8, 901));
    graph::CorpusReader reader(in);
    CorpusSubmission sub = svc.submit_batch(reader);
    ASSERT_EQ(sub.tickets.size(), 2u);
    for (const auto& t : sub.tickets) {
      EXPECT_EQ(t.state->status(), JobStatus::kRejected);
      EXPECT_EQ(svc.wait(t).outcome, vc::Outcome::kCancelled);
      EXPECT_TRUE(t.state->batch_results().empty());
    }
  }
  s = svc.stats();
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.expired, 2u);
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.corpus_graphs_solved, 0u);
  EXPECT_EQ(s.e2e_latency.count, 4u);  // one sample per refused chunk
  EXPECT_EQ(s.queue_wait.count, 0u);   // none entered a queue

  // Neither refusal touched the cache.
  EXPECT_EQ(s.cache.hits, 0u);
  EXPECT_EQ(s.cache.misses, 0u);
  EXPECT_EQ(s.cache.inflight_hits, 0u);
  EXPECT_EQ(s.cache.inflight_entries, 0u);
  EXPECT_EQ(s.cache.completed_entries, 0u);
}

TEST(SubmitBatch, TicketAggregateSummarizesTheChunk) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.corpus_chunk_size = 64;
  SolveService svc(opts);

  std::istringstream in(make_gspan_corpus(10, 321));
  graph::CorpusReader reader(in);
  CorpusSubmission sub = svc.submit_batch(reader);
  ASSERT_EQ(sub.tickets.size(), 1u);
  const ParallelResult& agg = svc.wait(sub.tickets[0]);
  EXPECT_EQ(agg.outcome, vc::Outcome::kOptimal);
  ASSERT_EQ(sub.tickets[0].state->batch_results().size(), 10u);
  std::uint64_t nodes = 0;
  for (const auto& r : sub.tickets[0].state->batch_results())
    nodes += r.tree_nodes;
  EXPECT_EQ(agg.tree_nodes, nodes);
  // One block per graph in the chunk's launch.
  EXPECT_EQ(agg.launch.blocks.size(), 10u);
}

TEST(SubmitBatch, CancelStopsAWholeChunk) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.corpus_chunk_size = 256;
  SolveService svc(opts);

  // Enough modest instances that the chunk is still in flight when the
  // cancel lands; the chunk must terminate with a cancelled aggregate (or
  // finish first on a fast machine — both are terminal, neither hangs).
  std::istringstream in(make_gspan_corpus(200, 5150));
  graph::CorpusReader reader(in);
  CorpusSubmission sub = svc.submit_batch(reader);
  ASSERT_EQ(sub.tickets.size(), 1u);
  sub.tickets[0].cancel();
  const ParallelResult& agg = svc.wait(sub.tickets[0]);
  if (agg.outcome == vc::Outcome::kCancelled) {
    SUCCEED();
  } else {
    EXPECT_EQ(agg.outcome, vc::Outcome::kOptimal);
  }
}

}  // namespace
}  // namespace gvc::service
