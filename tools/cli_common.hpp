#pragma once

// tools/cli_common — flag and spec-line parsing shared by the CLI tools
// (gvc_solve, gvc_serve, gvc_served, gvc_client, gvc_info), so the
// solver-shape flags, the workload spec-line grammar, the address/size
// parsers and the graph-header cap have exactly one implementation. Everything here is try_parse_*-style: parse
// failures return std::nullopt / false (after printing a usage line where
// noted) instead of aborting — tools exit 64, daemons refuse the request.

#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "harness/catalog.hpp"
#include "parallel/config.hpp"
#include "parallel/solver.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace gvc::tools {

/// Non-owning shared_ptr onto a catalog instance's cached graph. The
/// catalog vector must outlive every JobSpec built from it.
inline std::shared_ptr<const graph::CsrGraph> borrow(
    const harness::Instance& inst) {
  return {std::shared_ptr<const graph::CsrGraph>(), &inst.graph()};
}

/// Header vertex cap the graph-reading tools pass to
/// graph::set_max_header_vertices() before reading any file or corpus. The
/// library default is the full Vertex range, so one header line such as
/// `p edge 2000000000 1` could demand 16 GB of CSR offsets; at 2^24
/// vertices a header costs at most 128 MiB of offsets plus as much scratch
/// while the CSR is built.
inline constexpr graph::Vertex kToolMaxHeaderVertices = graph::Vertex{1} << 24;

// ---------------------------------------------------------------------------
// Address and size parsers.
// ---------------------------------------------------------------------------

struct HostPort {
  std::string host;
  int port = 0;
};

/// "HOST:PORT", a bare "PORT" (host defaults to 127.0.0.1), or a bare
/// "HOST" when `default_port` > 0. Ports must be 0..65535 (0 = ephemeral).
inline std::optional<HostPort> try_parse_host_port(const std::string& s,
                                                   int default_port = 0) {
  const auto parse_port = [](const std::string& p, int* out) {
    if (p.empty() || p.size() > 5) return false;
    int v = 0;
    for (char c : p) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + (c - '0');
    }
    if (v > 65535) return false;
    *out = v;
    return true;
  };
  if (s.empty()) return std::nullopt;
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos) {
    HostPort hp;
    if (parse_port(s, &hp.port)) {
      hp.host = "127.0.0.1";
      return hp;
    }
    if (default_port > 0) return HostPort{s, default_port};
    return std::nullopt;
  }
  HostPort hp;
  hp.host = s.substr(0, colon);
  if (hp.host.empty() || !parse_port(s.substr(colon + 1), &hp.port))
    return std::nullopt;
  return hp;
}

/// Byte sizes with binary suffixes: "4096", "64K", "8M", "2G" (case-
/// insensitive; optional trailing "b"/"ib" as in "8MiB"). std::nullopt on
/// malformed input or overflow.
inline std::optional<std::size_t> try_parse_bytes(const std::string& s) {
  if (s.empty()) return std::nullopt;
  std::size_t i = 0;
  std::uint64_t value = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    const std::uint64_t next = value * 10 + static_cast<std::uint64_t>(
                                                s[i] - '0');
    if (next < value) return std::nullopt;  // overflow
    value = next;
    ++i;
  }
  if (i == 0) return std::nullopt;  // no digits
  std::uint64_t mult = 1;
  if (i < s.size()) {
    switch (s[i]) {
      case 'k': case 'K': mult = std::uint64_t{1} << 10; break;
      case 'm': case 'M': mult = std::uint64_t{1} << 20; break;
      case 'g': case 'G': mult = std::uint64_t{1} << 30; break;
      default: return std::nullopt;
    }
    ++i;
    // Accept "B"/"b" and "iB"/"ib" tails.
    if (i < s.size() && (s[i] == 'i' || s[i] == 'I')) ++i;
    if (i < s.size() && (s[i] == 'b' || s[i] == 'B')) ++i;
  }
  if (i != s.size()) return std::nullopt;
  if (mult != 1 && value > ~std::uint64_t{0} / mult) return std::nullopt;
  return static_cast<std::size_t>(value * mult);
}

// ---------------------------------------------------------------------------
// Solver-shape flags, shared by every tool that builds a ParallelConfig.
// ---------------------------------------------------------------------------

/// Parses --method (default `def`); prints the usage line and returns
/// std::nullopt on unknown names.
inline std::optional<parallel::Method> parse_method_flag(
    const util::Args& args, const char* def = "hybrid") {
  const std::optional<parallel::Method> m =
      parallel::try_parse_method(args.get("method", def));
  if (!m.has_value())
    std::fprintf(stderr,
                 "unknown --method '%s' (want sequential|stackonly|hybrid|"
                 "globalonly|workstealing)\n",
                 args.get("method", def).c_str());
  return m;
}

/// Parses the solver-shape flags every tool shares into `config`:
/// --problem/--k, --branch, --branch-state, --seed, --grid, --block-size,
/// --worklist-capacity, --worklist-threshold, --start-depth. Absent flags
/// keep the config's current values as defaults. Prints the offending flag
/// and returns false on unknown enum names.
inline bool parse_solver_flags(const util::Args& args,
                               parallel::ParallelConfig* config) {
  if (args.has("problem")) {
    const std::string p = util::to_lower(args.get("problem"));
    if (p != "mvc" && p != "pvc") {
      std::fprintf(stderr, "unknown --problem '%s' (want mvc|pvc)\n",
                   args.get("problem").c_str());
      return false;
    }
    config->problem = p == "pvc" ? vc::Problem::kPvc : vc::Problem::kMvc;
  }
  config->k = static_cast<int>(args.get_int("k", config->k));
  if (args.has("branch")) {
    const std::optional<vc::BranchStrategy> branch =
        vc::try_parse_branch_strategy(args.get("branch"));
    if (!branch.has_value()) {
      std::fprintf(stderr,
                   "unknown --branch '%s' (want maxdegree|mindegree|random|"
                   "first)\n",
                   args.get("branch").c_str());
      return false;
    }
    config->branch = *branch;
  }
  if (args.has("branch-state")) {
    const std::optional<vc::BranchStateMode> mode =
        vc::try_parse_branch_state_mode(args.get("branch-state"));
    if (!mode.has_value()) {
      std::fprintf(stderr,
                   "unknown --branch-state '%s' (want undotrail|copy)\n",
                   args.get("branch-state").c_str());
      return false;
    }
    config->branch_state = *mode;
  }
  config->branch_seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(config->branch_seed)));
  config->grid_override =
      static_cast<int>(args.get_int("grid", config->grid_override));
  config->block_size_override = static_cast<int>(
      args.get_int("block-size", config->block_size_override));
  config->worklist_capacity = static_cast<std::size_t>(args.get_int(
      "worklist-capacity",
      static_cast<long long>(config->worklist_capacity)));
  config->worklist_threshold_frac =
      args.get_double("worklist-threshold", config->worklist_threshold_frac);
  config->start_depth =
      static_cast<int>(args.get_int("start-depth", config->start_depth));
  return true;
}

// ---------------------------------------------------------------------------
// Workload spec lines — the grammar gvc_serve established, reused verbatim
// by gvc_client:
//
//   INSTANCE [method] [pvc K] [priority=P] [deadline=S] [xN]
// ---------------------------------------------------------------------------

struct SpecLine {
  std::string instance;
  std::optional<parallel::Method> method;  ///< absent = caller's default
  bool pvc = false;
  int k = 0;
  int priority = 0;
  double deadline_s = 0.0;
  int repeat = 1;
};

/// Parses one workload line. Returns std::nullopt (with the violation in
/// *why) on bad tokens; the instance name is NOT validated here — the
/// consumer resolves it against its catalog or daemon.
inline std::optional<SpecLine> try_parse_spec_line(const std::string& line,
                                                   std::string* why) {
  const auto fail = [&](const std::string& m) {
    if (why != nullptr) *why = m;
    return std::optional<SpecLine>{};
  };
  std::istringstream in(line);
  SpecLine out;
  if (!(in >> out.instance)) return fail("empty spec line");

  std::string tok;
  while (in >> tok) {
    if (tok == "pvc") {
      long long k = 0;
      if (!(in >> k) || k <= 0) return fail("'pvc' needs a positive K");
      out.pvc = true;
      out.k = static_cast<int>(k);
    } else if (tok.rfind("priority=", 0) == 0) {
      try {
        out.priority = std::stoi(tok.substr(9));
      } catch (...) {
        return fail("bad priority= value");
      }
    } else if (tok.rfind("deadline=", 0) == 0) {
      try {
        out.deadline_s = std::stod(tok.substr(9));
      } catch (...) {
        return fail("bad deadline= value");
      }
    } else if (tok.size() > 1 && tok[0] == 'x') {
      try {
        out.repeat = std::stoi(tok.substr(1));
      } catch (...) {
        return fail("bad xN repeat count");
      }
      if (out.repeat < 1) return fail("xN needs N >= 1");
    } else {
      const std::optional<parallel::Method> m = parallel::try_parse_method(tok);
      if (!m.has_value())
        return fail("unknown token '" + tok +
                    "' (want a method name, 'pvc K', 'priority=P', "
                    "'deadline=S', or 'xN')");
      out.method = *m;
    }
  }
  return out;
}

}  // namespace gvc::tools
