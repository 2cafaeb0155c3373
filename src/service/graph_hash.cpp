#include "service/graph_hash.hpp"

#include <bit>

namespace gvc::service {

namespace {

constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ull;

// Domain separators for the two CSR arrays ("offs\0..1" / "adj\0...2" in
// big-endian ASCII). Any distinct constants work; naming them makes hash
// dumps greppable.
constexpr std::uint64_t kOffsetsTag = 0x6f66667300000001ull;
constexpr std::uint64_t kAdjacencyTag = 0x61646a0000000002ull;

/// Running fingerprint: order-sensitive fold of 64-bit words. Order
/// sensitivity is wanted — the adjacency of a CSR graph is canonically
/// sorted, so position carries structure.
class Fold {
 public:
  void add(std::uint64_t word) {
    h_ = mix64(h_ ^ word) + std::rotl(h_, 23);
  }
  void add_double(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  std::uint64_t get() const { return mix64(h_); }

 private:
  std::uint64_t h_ = kSeed;
};

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += kSeed;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t canonical_csr_hash(const std::vector<std::int64_t>& offsets,
                                 const std::vector<graph::Vertex>& adjacency) {
  Fold fold;
  // Each array is framed by a domain separator and its explicit length. A
  // plain fold of the concatenated streams cannot tell where the offsets
  // end and the adjacency begins: offsets [0,1,2] + adjacency [1,0] and
  // offsets [0,1] + adjacency [2,1,0] flatten to the identical word stream
  // [0,1,2,1,0] and would alias to one cache entry. The separators make
  // the array boundary part of the fingerprint.
  fold.add(kOffsetsTag);
  fold.add(static_cast<std::uint64_t>(offsets.size()));
  for (std::int64_t o : offsets) fold.add(static_cast<std::uint64_t>(o));
  fold.add(kAdjacencyTag);
  fold.add(static_cast<std::uint64_t>(adjacency.size()));
  for (graph::Vertex u : adjacency) fold.add(static_cast<std::uint64_t>(u));
  return fold.get();
}

std::uint64_t canonical_graph_hash(const graph::CsrGraph& g) {
  return canonical_csr_hash(g.offsets(), g.adjacency());
}

std::uint64_t solve_config_hash(parallel::Method method,
                                const parallel::ParallelConfig& config) {
  Fold fold;
  fold.add(static_cast<std::uint64_t>(method));
  fold.add(static_cast<std::uint64_t>(config.problem));
  fold.add(static_cast<std::uint64_t>(config.k));
  fold.add(static_cast<std::uint64_t>(config.semantics));
  fold.add((config.rules.degree_one ? 1u : 0u) |
           (config.rules.degree_two_triangle ? 2u : 0u) |
           (config.rules.high_degree ? 4u : 0u));
  fold.add(static_cast<std::uint64_t>(config.branch));
  fold.add(config.branch_seed);
  // Limits are deliberately NOT hashed: they moved out of ParallelConfig
  // into the caller-owned SolveControl, and a cache only admits complete
  // records — which are limit-independent — so requests differing only in
  // budgets should share one entry. config.branch_state is skipped for the
  // same reason: kCopy and kUndoTrail are bit-identical by contract (the
  // differential suite enforces it), so the mode is execution policy, not
  // part of the answer's identity.
  fold.add(static_cast<std::uint64_t>(config.block_size_override));
  fold.add(static_cast<std::uint64_t>(config.grid_override));
  fold.add(static_cast<std::uint64_t>(config.start_depth));
  fold.add(static_cast<std::uint64_t>(config.worklist_capacity));
  fold.add_double(config.worklist_threshold_frac);

  const device::DeviceSpec& d = config.device;
  fold.add(static_cast<std::uint64_t>(d.num_sms));
  fold.add(static_cast<std::uint64_t>(d.max_threads_per_block));
  fold.add(static_cast<std::uint64_t>(d.max_threads_per_sm));
  fold.add(static_cast<std::uint64_t>(d.max_blocks_per_sm));
  fold.add(static_cast<std::uint64_t>(d.shared_mem_per_sm_bytes));
  fold.add(static_cast<std::uint64_t>(d.shared_mem_per_block_bytes));
  fold.add(static_cast<std::uint64_t>(d.global_mem_bytes));
  return fold.get();
}

CacheKey make_cache_key(const graph::CsrGraph& g, parallel::Method method,
                        const parallel::ParallelConfig& config) {
  CacheKey key;
  key.graph_hash = canonical_graph_hash(g);
  key.config_hash = solve_config_hash(method, config);
  key.num_vertices = g.num_vertices();
  key.num_edges = g.num_edges();
  return key;
}

}  // namespace gvc::service
