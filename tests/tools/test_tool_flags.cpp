// Every CLI tool declares its flags and refuses any other with exit 64 and
// its usage line, so a retired option (--kernel-dispatch) or a misspelled
// one (--metod) fails loudly instead of solving as if it were absent. The
// tools are run as built; each base command line is one the tool accepts or
// rejects for a different reason, so only the flag check can print the
// "unknown flag" line.

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace {

struct ToolRun {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

ToolRun run_tool(const std::string& command_line) {
  const std::string cmd =
      std::string(GVC_TOOLS_DIR) + "/" + command_line + " 2>&1";
  ToolRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

// A base command line per tool. None of them reaches a socket or a long
// solve: gvc_served's listen address and gvc_client's connect address are
// malformed, so without the flag check they too would stop at once.
const std::vector<std::string>& base_commands() {
  static const std::vector<std::string> commands = {
      "gvc_solve no_such_graph.gvc",
      "gvc_info no_such_graph.gvc",
      "gvc_gen --list",
      "gvc_serve --jobs 1 --distinct 1 --workers 1",
      "gvc_served --listen bad:address",
      "gvc_client --connect bad:address",
      "trace_check no_such_trace.json",
  };
  return commands;
}

TEST(ToolFlags, RetiredFlagIsAUsageError) {
  for (const std::string& base : base_commands()) {
    const ToolRun run = run_tool(base + " --kernel-dispatch auto");
    EXPECT_EQ(run.exit_code, 64) << base << "\n" << run.output;
    EXPECT_NE(run.output.find("unknown flag --kernel-dispatch"),
              std::string::npos)
        << base << "\n" << run.output;
    EXPECT_NE(run.output.find("usage:"), std::string::npos) << base;
  }
}

TEST(ToolFlags, MisspelledFlagIsAUsageError) {
  for (const std::string& base : base_commands()) {
    const ToolRun run = run_tool(base + " --metod hybrid");
    EXPECT_EQ(run.exit_code, 64) << base << "\n" << run.output;
    EXPECT_NE(run.output.find("unknown flag --metod"), std::string::npos)
        << base << "\n" << run.output;
    EXPECT_NE(run.output.find("usage:"), std::string::npos) << base;
  }
}

TEST(ToolFlags, DeclaredFlagsPassTheCheck) {
  // The solver-shape flags every solving tool shares, and a tool's own.
  const ToolRun solve = run_tool(
      "gvc_solve no_such_graph.gvc --method hybrid --grid 4 --branch-state "
      "copy --node-limit 5 --quiet");
  EXPECT_NE(solve.exit_code, 64) << solve.output;
  EXPECT_EQ(solve.output.find("unknown flag"), std::string::npos);
  const ToolRun gen = run_tool("gvc_gen --list");
  EXPECT_EQ(gen.exit_code, 0) << gen.output;
}

}  // namespace
