// perfbench — the repository benchmark: three workloads (exact_solve,
// serve_wire, corpus_stream) generated from a seed, every answer checked.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--fingerprint-only]
//
// An untraced run (--trace 0) measures the end-to-end metrics. A traced
// run (--trace 1) first repeats the untraced measurement for half the time
// as the base, then enables the benchmark's own spans for the other half
// and reports the per-layer metrics, the per-layer self-time table and the
// tracing overhead between the two halves; the spans go to --trace-out as
// Chrome trace-event JSON. perfbench/run.py builds this program, names the
// metrics (BENCHMARK.json is the list) and prints the final result line.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the measured metrics, each as {"value": v, "unit": u}. The exit code is
// non-zero when any answer check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload exact_solve|serve_wire|"
               "corpus_stream --seed N --seconds S --trace 0|1\n"
               "                 [--trace-out FILE] [--fingerprint-only]\n");
  return 64;
}

void print_json(const Report& report, const std::map<std::string, Metric>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  bool first = true;
  for (const auto& [name, metric] : m) {
    // JSON has no infinity; a latency made infinite by a failed request is
    // printed as a huge finite number (the run is marked incorrect anyway).
    const double v = std::isfinite(metric.value) ? metric.value : 1e300;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--fingerprint-only") {
      opts.fingerprint_only = true;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) == "1";
      have_trace = true;
    } else if (arg == "--trace-out" && has_value) {
      opts.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (opts.workload.empty() || !(opts.seconds > 0.0) ||
      (!have_trace && !opts.fingerprint_only))
    return usage();

  Report report;
  int rc = 0;
  if (opts.workload == "exact_solve") {
    rc = run_exact_solve(opts, report);
  } else if (opts.workload == "serve_wire") {
    rc = run_serve_wire(opts, report);
  } else if (opts.workload == "corpus_stream") {
    rc = run_corpus_stream(opts, report);
  } else {
    return usage();
  }
  if (rc != 0 || opts.fingerprint_only) return rc;

  if (opts.trace) {
    const std::vector<trace::SpanRecord> spans = trace::collect();
    trace::print_self_time_table(spans);
    if (!opts.trace_out.empty() &&
        !trace::write_chrome_trace(opts.trace_out, spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opts.trace_out.c_str());
      return 1;
    }
    report.layer("trace.spans", static_cast<double>(spans.size()), "count");
  }
  report.layer("bench.failed_frac",
               report.attempted() == 0
                   ? 1.0
                   : static_cast<double>(report.failed()) /
                         static_cast<double>(report.attempted()),
               "frac");
  std::printf("checked %llu operations, %llu failed\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  print_json(report, opts.trace ? report.layer_metrics()
                                : report.e2e_metrics());
  return report.correct() && report.attempted() > 0 ? 0 : 1;
}
