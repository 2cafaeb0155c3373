// Header allocation bombs: a two-line file whose header declares two
// billion vertices. Under the library's default cap (the full Vertex range)
// the header is accepted, and building the CSR needs 16 GB of offsets. On a
// memory-limited process that allocation fails; the readers must turn the
// failure into an IoError (single file) or a CorpusSkip (stream), never an
// uncaught std::bad_alloc.
//
// To fail the allocation without a real address-space limit, this binary
// replaces the global allocation functions: any single request above
// kAllocCeiling throws std::bad_alloc before touching memory, as a process
// under `ulimit -v` would. Everything smaller goes to malloc/free, so the
// rest of the binary (and a sanitizer runtime) sees ordinary allocations.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <string>

#include "graph/corpus.hpp"
#include "graph/io.hpp"

namespace {

constexpr std::size_t kAllocCeiling = std::size_t{1} << 30;  // 1 GiB

void* checked_alloc(std::size_t size) {
  if (size > kAllocCeiling) throw std::bad_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return checked_alloc(size); }
void* operator new[](std::size_t size) { return checked_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gvc::graph {
namespace {

const char kDimacsBomb[] = "p edge 2000000000 1\ne 1 2\n";
const char kPaceBomb[] = "p td 2000000000 1\n1 2\n";

TEST(HeaderBomb, AllocationCeilingIsInForce) {
  // Guards the premise of every test below: the offsets of a 2e9-vertex
  // CSR (16 GB) cannot be allocated in this binary.
  EXPECT_THROW(static_cast<void>(::operator new(std::size_t{16} << 30)),
               std::bad_alloc);
}

TEST(HeaderBomb, DimacsFileIsAnIoError) {
  ASSERT_EQ(max_header_vertices(), std::numeric_limits<Vertex>::max());
  std::istringstream in(kDimacsBomb);
  auto r = try_read_dimacs(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().what, "vertex count 2000000000 too large to allocate");
  EXPECT_EQ(r.error().line, 1);
}

TEST(HeaderBomb, PaceFileIsAnIoError) {
  std::istringstream in(kPaceBomb);
  auto r = try_read_pace(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().what, "vertex count 2000000000 too large to allocate");
  EXPECT_EQ(r.error().line, 1);
}

TEST(HeaderBomb, PaceSolutionHeaderReservesNothing) {
  // "s vc N K" used to reserve K entries up front; K = 2e9 is 8 GB.
  std::istringstream in("s vc 2000000000 2000000000\n1\n");
  auto r = try_read_pace_solution(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().what, "solution size disagrees with s line");
}

TEST(HeaderBomb, DimacsStreamSkipsTheRecordAndResyncs) {
  std::istringstream in(std::string(kDimacsBomb) + "p edge 3 2\ne 1 2\ne 2 3\n");
  CorpusReader r(in);
  auto a = r.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->index, 1);
  EXPECT_EQ(a->graph.num_vertices(), 3);
  EXPECT_EQ(a->graph.num_edges(), 2);
  ASSERT_EQ(r.skips().size(), 1u);
  EXPECT_EQ(r.skips()[0].reason, "vertex count too large to allocate");
  EXPECT_EQ(r.skips()[0].line, 1);
  EXPECT_FALSE(r.next().has_value());
}

TEST(HeaderBomb, PaceStreamSkipsTheRecordAndResyncs) {
  // A PACE file fed to the corpus reader autodetects as a DIMACS stream;
  // its body lines are not "e" records, so the record is skipped before
  // anything is built.
  std::istringstream in(std::string(kPaceBomb) + "p edge 2 1\ne 1 2\n");
  CorpusReader r(in);
  auto a = r.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->graph.num_vertices(), 2);
  ASSERT_EQ(r.skips().size(), 1u);
  EXPECT_EQ(r.skips()[0].line, 2);
  EXPECT_FALSE(r.next().has_value());
}

}  // namespace
}  // namespace gvc::graph
