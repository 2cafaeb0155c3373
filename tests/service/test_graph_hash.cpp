#include "service/graph_hash.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace gvc::service {
namespace {

TEST(GraphHash, DeterministicAndEqualForEqualGraphs) {
  auto a = graph::gnp(64, 0.2, 7);
  auto b = graph::gnp(64, 0.2, 7);  // regenerated, structurally equal
  ASSERT_EQ(a, b);
  EXPECT_EQ(canonical_graph_hash(a), canonical_graph_hash(a));
  EXPECT_EQ(canonical_graph_hash(a), canonical_graph_hash(b));
}

TEST(GraphHash, SensitiveToAnyStructuralChange) {
  const std::uint64_t base = canonical_graph_hash(graph::path(6));
  EXPECT_NE(base, canonical_graph_hash(graph::path(7)));   // extra vertex
  EXPECT_NE(base, canonical_graph_hash(graph::cycle(6)));  // extra edge
  // Same degree sequence, different adjacency: a 6-cycle vs two triangles.
  graph::GraphBuilder two_triangles(6);
  two_triangles.add_edge(0, 1);
  two_triangles.add_edge(1, 2);
  two_triangles.add_edge(2, 0);
  two_triangles.add_edge(3, 4);
  two_triangles.add_edge(4, 5);
  two_triangles.add_edge(5, 3);
  EXPECT_NE(canonical_graph_hash(graph::cycle(6)),
            canonical_graph_hash(two_triangles.build()));
}

TEST(GraphHash, SpreadsAcrossAFamily) {
  // 200 related graphs (same family, consecutive seeds) must not collide —
  // a weak mixer would alias some of these.
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 200; ++seed)
    seen.insert(canonical_graph_hash(graph::gnp(32, 0.25, seed)));
  EXPECT_EQ(seen.size(), 200u);
}

// ---------------------------------------------------------------------------
// Array-boundary collision regression. canonical_csr_hash frames each CSR
// array with a domain separator and its explicit length; a fold of the bare
// concatenation cannot see where the offsets end and the adjacency begins,
// so two different byte layouts that flatten to the same word stream alias.
// ---------------------------------------------------------------------------

// What a framing-less implementation looks like: every word of both arrays
// folded in order, nothing marking the array boundary. Any such fold — the
// mixer does not matter — collides on the crafted pair below, because the
// concatenated word streams are identical.
std::uint64_t unframed_fold(const std::vector<std::int64_t>& offsets,
                            const std::vector<graph::Vertex>& adjacency) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto add = [&](std::uint64_t w) { h = mix64(h ^ w); };
  for (std::int64_t o : offsets) add(static_cast<std::uint64_t>(o));
  for (graph::Vertex u : adjacency) add(static_cast<std::uint64_t>(u));
  return h;
}

TEST(GraphHash, ArrayBoundaryCollisionPair) {
  // offsets [0,1,2] + adjacency [1,0]  and  offsets [0,1] + adjacency
  // [2,1,0] flatten to the identical stream [0,1,2,1,0]. (The second pair
  // is not a valid CSR graph — canonical_csr_hash is exactly the hash the
  // daemon applies to uploaded blobs BEFORE validation, so the collision
  // domain includes malformed arrays.)
  const std::vector<std::int64_t> offsets_a{0, 1, 2};
  const std::vector<graph::Vertex> adjacency_a{1, 0};
  const std::vector<std::int64_t> offsets_b{0, 1};
  const std::vector<graph::Vertex> adjacency_b{2, 1, 0};

  // The framing-less fold aliases the pair...
  EXPECT_EQ(unframed_fold(offsets_a, adjacency_a),
            unframed_fold(offsets_b, adjacency_b));
  // ...the production hash must not.
  EXPECT_NE(canonical_csr_hash(offsets_a, adjacency_a),
            canonical_csr_hash(offsets_b, adjacency_b));
}

TEST(GraphHash, CsrHashAgreesWithGraphHash) {
  const auto g = graph::gnp(48, 0.2, 11);
  EXPECT_EQ(canonical_graph_hash(g),
            canonical_csr_hash(g.offsets(), g.adjacency()));
  // Moving one adjacency word across the boundary (shorter offsets, longer
  // adjacency) always changes the hash, even keeping the stream equal.
  std::vector<std::int64_t> offsets = g.offsets();
  std::vector<graph::Vertex> adjacency = g.adjacency();
  const std::uint64_t before = canonical_csr_hash(offsets, adjacency);
  adjacency.insert(adjacency.begin(),
                   static_cast<graph::Vertex>(offsets.back()));
  offsets.pop_back();
  EXPECT_NE(before, canonical_csr_hash(offsets, adjacency));
}

TEST(ConfigHash, CoversResultShapingKnobs) {
  parallel::ParallelConfig base;
  const std::uint64_t h = solve_config_hash(parallel::Method::kHybrid, base);

  EXPECT_EQ(h, solve_config_hash(parallel::Method::kHybrid, base));
  EXPECT_NE(h, solve_config_hash(parallel::Method::kSequential, base));

  auto tweaked = [&](auto mutate) {
    parallel::ParallelConfig c = base;
    mutate(c);
    return solve_config_hash(parallel::Method::kHybrid, c);
  };
  EXPECT_NE(h, tweaked([](auto& c) { c.problem = vc::Problem::kPvc; }));
  EXPECT_NE(h, tweaked([](auto& c) { c.k = 5; }));
  EXPECT_NE(h, tweaked([](auto& c) {
    c.semantics = vc::ReduceSemantics::kSerial;
  }));
  EXPECT_NE(h, tweaked([](auto& c) { c.rules.degree_one = false; }));
  EXPECT_NE(h, tweaked([](auto& c) { c.branch_seed = 1; }));
  EXPECT_NE(h, tweaked([](auto& c) { c.grid_override = 2; }));
  EXPECT_NE(h, tweaked([](auto& c) { c.device.num_sms /= 2; }));
  // Budgets live on SolveControl, outside the config, precisely so they do
  // NOT shape the key: only complete (limit-independent) records are
  // cached, and requests differing only in budgets should share an entry.

  // The pure execution-policy knob must NOT shape the key either: every
  // branch-state mode produces bit-identical results by contract, so
  // requests differing only in it share one cache entry.
  EXPECT_EQ(h, tweaked([](auto& c) {
    c.branch_state = vc::BranchStateMode::kCopy;
  }));
}

TEST(CacheKey, EqualityAndHashAgree) {
  auto g = graph::gnp(40, 0.3, 3);
  parallel::ParallelConfig config;
  CacheKey a = make_cache_key(g, parallel::Method::kHybrid, config);
  CacheKey b = make_cache_key(g, parallel::Method::kHybrid, config);
  EXPECT_EQ(a, b);
  EXPECT_EQ(CacheKeyHash{}(a), CacheKeyHash{}(b));

  CacheKey c = make_cache_key(g, parallel::Method::kSequential, config);
  EXPECT_NE(a, c);

  EXPECT_EQ(a.num_vertices, 40);
  EXPECT_EQ(a.num_edges, g.num_edges());
}

}  // namespace
}  // namespace gvc::service
