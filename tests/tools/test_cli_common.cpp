// Unit tests for the flag/spec parsers shared by the CLI tools. These
// parsers gate what reaches the daemon (listen addresses, frame caps,
// workload lines), so malformed input must fail closed — std::nullopt or
// false, never a half-parsed value.

#include "../../tools/cli_common.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/corpus.hpp"

namespace gvc::tools {
namespace {

util::Args args_of(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "test");
  return util::Args(static_cast<int>(argv.size()), argv.data());
}

// ---------------------------------------------------------------------------
// try_parse_host_port
// ---------------------------------------------------------------------------

TEST(HostPort, AcceptsHostColonPort) {
  const auto hp = try_parse_host_port("0.0.0.0:9090");
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(hp->host, "0.0.0.0");
  EXPECT_EQ(hp->port, 9090);
}

TEST(HostPort, BarePortDefaultsLoopbackHost) {
  const auto hp = try_parse_host_port("8080");
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 8080);
}

TEST(HostPort, BareHostNeedsDefaultPort) {
  EXPECT_FALSE(try_parse_host_port("example.test").has_value());
  const auto hp = try_parse_host_port("example.test", 7777);
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(hp->host, "example.test");
  EXPECT_EQ(hp->port, 7777);
}

TEST(HostPort, PortZeroMeansEphemeral) {
  const auto hp = try_parse_host_port("127.0.0.1:0");
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(hp->port, 0);
}

TEST(HostPort, RejectsMalformed) {
  EXPECT_FALSE(try_parse_host_port("").has_value());
  EXPECT_FALSE(try_parse_host_port(":8080").has_value());      // empty host
  EXPECT_FALSE(try_parse_host_port("host:").has_value());      // empty port
  EXPECT_FALSE(try_parse_host_port("host:65536").has_value()); // > u16
  EXPECT_FALSE(try_parse_host_port("host:12ab").has_value());
  EXPECT_FALSE(try_parse_host_port("host:123456").has_value());
}

TEST(HostPort, LastColonSplitsIpv6ishStrings) {
  // rfind(':') semantics: everything before the final colon is the host.
  const auto hp = try_parse_host_port("::1:9000");
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(hp->host, "::1");
  EXPECT_EQ(hp->port, 9000);
}

// ---------------------------------------------------------------------------
// try_parse_bytes
// ---------------------------------------------------------------------------

TEST(Bytes, PlainAndSuffixedSizes) {
  EXPECT_EQ(try_parse_bytes("4096"), std::size_t{4096});
  EXPECT_EQ(try_parse_bytes("64K"), std::size_t{64} << 10);
  EXPECT_EQ(try_parse_bytes("64k"), std::size_t{64} << 10);
  EXPECT_EQ(try_parse_bytes("8M"), std::size_t{8} << 20);
  EXPECT_EQ(try_parse_bytes("2G"), std::size_t{2} << 30);
  EXPECT_EQ(try_parse_bytes("8MB"), std::size_t{8} << 20);
  EXPECT_EQ(try_parse_bytes("8MiB"), std::size_t{8} << 20);
  EXPECT_EQ(try_parse_bytes("8mib"), std::size_t{8} << 20);
  EXPECT_EQ(try_parse_bytes("0"), std::size_t{0});
}

TEST(Bytes, RejectsMalformedAndOverflow) {
  EXPECT_FALSE(try_parse_bytes("").has_value());
  EXPECT_FALSE(try_parse_bytes("K").has_value());      // no digits
  EXPECT_FALSE(try_parse_bytes("12X").has_value());    // unknown suffix
  EXPECT_FALSE(try_parse_bytes("12Kx").has_value());   // trailing junk
  EXPECT_FALSE(try_parse_bytes("12KiBB").has_value());
  EXPECT_FALSE(try_parse_bytes("-1").has_value());
  EXPECT_FALSE(try_parse_bytes("99999999999999999999").has_value());
  EXPECT_FALSE(try_parse_bytes("99999999999G").has_value());  // mult overflow
}

// ---------------------------------------------------------------------------
// parse_method_flag / parse_solver_flags
// ---------------------------------------------------------------------------

TEST(SolverFlags, MethodFlagParsesAndDefaults) {
  EXPECT_EQ(parse_method_flag(args_of({"--method", "stackonly"})),
            parallel::Method::kStackOnly);
  EXPECT_EQ(parse_method_flag(args_of({})), parallel::Method::kHybrid);
  EXPECT_EQ(parse_method_flag(args_of({}), "sequential"),
            parallel::Method::kSequential);
  EXPECT_FALSE(parse_method_flag(args_of({"--method", "bogus"})).has_value());
}

TEST(SolverFlags, AbsentFlagsKeepDefaults) {
  parallel::ParallelConfig config;
  const parallel::ParallelConfig before = config;
  ASSERT_TRUE(parse_solver_flags(args_of({}), &config));
  EXPECT_EQ(config.problem, before.problem);
  EXPECT_EQ(config.branch, before.branch);
  EXPECT_EQ(config.branch_seed, before.branch_seed);
  EXPECT_EQ(config.grid_override, before.grid_override);
  EXPECT_EQ(config.worklist_capacity, before.worklist_capacity);
}

TEST(SolverFlags, AllFlagsLand) {
  parallel::ParallelConfig config;
  const auto args = args_of({"--problem", "pvc", "--k", "5",
                             "--branch", "mindegree",
                             "--branch-state", "copy",
                             "--seed", "99", "--grid", "4",
                             "--block-size", "128",
                             "--worklist-capacity", "512",
                             "--worklist-threshold", "0.25",
                             "--start-depth", "3"});
  ASSERT_TRUE(parse_solver_flags(args, &config));
  // kSolverFlags declares exactly what parse_solver_flags reads.
  EXPECT_TRUE(check_flags(args, {}, "usage: %s\n", /*solver_flags=*/true));
  EXPECT_EQ(config.problem, vc::Problem::kPvc);
  EXPECT_EQ(config.k, 5);
  EXPECT_EQ(config.branch, vc::BranchStrategy::kMinDegree);
  EXPECT_EQ(config.branch_state, vc::BranchStateMode::kCopy);
  EXPECT_EQ(config.branch_seed, 99u);
  EXPECT_EQ(config.grid_override, 4);
  EXPECT_EQ(config.block_size_override, 128);
  EXPECT_EQ(config.worklist_capacity, 512u);
  EXPECT_DOUBLE_EQ(config.worklist_threshold_frac, 0.25);
  EXPECT_EQ(config.start_depth, 3);
}

TEST(SolverFlags, RejectsUnknownEnumNames) {
  parallel::ParallelConfig config;
  EXPECT_FALSE(parse_solver_flags(args_of({"--problem", "tsp"}), &config));
  EXPECT_FALSE(parse_solver_flags(args_of({"--branch", "widest"}), &config));
  EXPECT_FALSE(
      parse_solver_flags(args_of({"--branch-state", "cow"}), &config));
}

TEST(CheckFlags, RejectsUndeclaredFlags) {
  const auto args = args_of({"g.gvc", "--quiet", "--grid", "4"});
  EXPECT_TRUE(check_flags(args, {"quiet"}, "usage: %s\n", true));
  EXPECT_FALSE(check_flags(args, {"quiet"}, "usage: %s\n"));  // --grid
  EXPECT_FALSE(check_flags(args_of({"--metod", "hybrid"}), {"method"},
                           "usage: %s\n", true));
}

// ---------------------------------------------------------------------------
// try_parse_spec_line
// ---------------------------------------------------------------------------

TEST(SpecLine, MinimalAndFullLines) {
  std::string why;
  auto minimal = try_parse_spec_line("p_hat_300_1", &why);
  ASSERT_TRUE(minimal.has_value()) << why;
  EXPECT_EQ(minimal->instance, "p_hat_300_1");
  EXPECT_FALSE(minimal->method.has_value());
  EXPECT_FALSE(minimal->pvc);
  EXPECT_EQ(minimal->repeat, 1);

  auto full = try_parse_spec_line(
      "brock200_2 workstealing pvc 7 priority=-2 deadline=1.5 x3", &why);
  ASSERT_TRUE(full.has_value()) << why;
  EXPECT_EQ(full->instance, "brock200_2");
  ASSERT_TRUE(full->method.has_value());
  EXPECT_EQ(*full->method, parallel::Method::kWorkStealing);
  EXPECT_TRUE(full->pvc);
  EXPECT_EQ(full->k, 7);
  EXPECT_EQ(full->priority, -2);
  EXPECT_DOUBLE_EQ(full->deadline_s, 1.5);
  EXPECT_EQ(full->repeat, 3);
}

TEST(SpecLine, RejectsBadTokensWithReason) {
  std::string why;
  EXPECT_FALSE(try_parse_spec_line("", &why).has_value());
  EXPECT_EQ(why, "empty spec line");
  EXPECT_FALSE(try_parse_spec_line("g pvc", &why).has_value());
  EXPECT_EQ(why, "'pvc' needs a positive K");
  EXPECT_FALSE(try_parse_spec_line("g pvc -3", &why).has_value());
  EXPECT_FALSE(try_parse_spec_line("g priority=abc", &why).has_value());
  EXPECT_EQ(why, "bad priority= value");
  EXPECT_FALSE(try_parse_spec_line("g deadline=soon", &why).has_value());
  EXPECT_FALSE(try_parse_spec_line("g x0", &why).has_value());
  EXPECT_EQ(why, "xN needs N >= 1");
  EXPECT_FALSE(try_parse_spec_line("g teleport", &why).has_value());
  EXPECT_NE(why.find("unknown token 'teleport'"), std::string::npos);
  // Null `why` must be tolerated.
  EXPECT_FALSE(try_parse_spec_line("g teleport", nullptr).has_value());
}

// ---------------------------------------------------------------------------
// kToolMaxHeaderVertices
// ---------------------------------------------------------------------------

TEST(ToolHeaderCap, RejectsHeaderBombsInFilesAndCorpora) {
  // Two-line files whose header declares two billion vertices: under the
  // tools' cap they are diagnostics, never a 16 GB allocation.
  const graph::Vertex prev =
      graph::set_max_header_vertices(kToolMaxHeaderVertices);

  std::istringstream dimacs("p edge 2000000000 1\ne 1 2\n");
  auto d = graph::try_read_dimacs(dimacs);
  std::istringstream pace("p td 2000000000 1\n1 2\n");
  auto p = graph::try_read_pace(pace);

  std::istringstream dimacs_stream(
      "p edge 2000000000 1\ne 1 2\np edge 2 1\ne 1 2\n");
  graph::CorpusReader dimacs_reader(dimacs_stream);
  auto dimacs_next = dimacs_reader.next();
  std::istringstream pace_stream("p td 2000000000 1\n1 2\np edge 2 1\ne 1 2\n");
  graph::CorpusReader pace_reader(pace_stream);
  auto pace_next = pace_reader.next();
  graph::set_max_header_vertices(prev);

  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error().what, "vertex count out of range");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.error().what, "vertex count out of range");
  for (const auto* reader : {&dimacs_reader, &pace_reader}) {
    ASSERT_EQ(reader->skips().size(), 1u);
    EXPECT_EQ(reader->skips()[0].reason, "vertex count out of range");
    EXPECT_EQ(reader->skips()[0].line, 1);
  }
  ASSERT_TRUE(dimacs_next.has_value());
  EXPECT_EQ(dimacs_next->graph.num_vertices(), 2);
  ASSERT_TRUE(pace_next.has_value());
  EXPECT_EQ(pace_next->graph.num_vertices(), 2);
}

}  // namespace
}  // namespace gvc::tools
