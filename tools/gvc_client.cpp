// gvc_client — command-line client for gvc_served, speaking the frame
// protocol through net::Client. One connection multiplexes every job.
//
//   gvc_client [SPECFILE] --connect HOST:PORT [options]
//
// Workload (batch mode, the default):
//   SPECFILE           gvc_serve's spec-line grammar, submitted by name:
//                        INSTANCE [method] [pvc K] [priority=P]
//                                 [deadline=S] [xN]
//   --jobs N           synthetic batch: N jobs round-robined over the
//                      first --distinct D catalog instances (default 8/4;
//                      used when no SPECFILE is given)
//   --upload           upload each distinct instance as a raw CSR blob and
//                      submit by graph id instead of by catalog name
//   --scale S          catalog scale for names / uploads (default smoke —
//                      must match the daemon's for by-name submits)
//   --method M, --problem/--k/--branch/... (see tools/cli_common.hpp)
//   --time-limit S     per-job solve budget
//   --deadline-ms M    per-job wire deadline (relative to admission)
//   --cancel-after-ms M  cancel every still-outstanding job M ms after the
//                      batch is submitted
//
// Protocol exercises (used by the CI loopback smoke):
//   --cancel-test      submit a filler then a target job, cancel the
//                      target, expect kCancelled over the wire
//   --deadline-test    submit a job with an already-hopeless deadline,
//                      expect kExpired/kDeadline over the wire
//
// Introspection:
//   --stats            print the daemon's metric registry JSON
//   --metrics-out FILE write that same registry JSON to FILE
//   --shutdown         ask the daemon to shut down when done (needs
//                      --allow-remote-shutdown on the daemon)
//
// Exit code: 0 when every job produced a Result frame (and the test modes
// observed their expected outcome), 1 otherwise, 64 for usage errors.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "harness/catalog.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "service/job.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace gvc;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* wire_status_name(std::uint8_t s) {
  return s <= 5 ? service::job_status_name(static_cast<service::JobStatus>(s))
                : "?";
}

struct Submitted {
  std::uint64_t id = 0;
  std::string label;
  double sent_s = 0.0;
};

/// Submits `req`, waits for the Accepted frame, returns the wire id (0 on
/// failure, with the error printed).
std::uint64_t submit_one(net::Client& client, const net::SolveRequestMsg& req,
                         const std::string& label) {
  const std::uint64_t id = client.submit(req);
  if (id == 0) {
    std::fprintf(stderr, "gvc_client: submit '%s': connection dead\n",
                 label.c_str());
    return 0;
  }
  net::AcceptedMsg accepted;
  net::ErrorMsg err;
  if (!client.wait_accepted(id, &accepted, &err)) {
    std::fprintf(stderr, "gvc_client: submit '%s': %s (%s)\n", label.c_str(),
                 err.message.c_str(), net::error_code_name(err.code));
    return 0;
  }
  return id;
}

// --cancel-test: a filler job occupies the worker, the target sits queued
// behind it and the cancel hits deterministically (run the daemon with
// --workers 1). The branch seed is rotated per attempt so the result cache
// and coalescing can never pre-terminate the target.
int run_cancel_test(net::Client& client, net::SolveRequestMsg base,
                    const std::vector<std::string>& names) {
  if (names.size() < 2) {
    std::fprintf(stderr, "gvc_client: --cancel-test needs >= 2 instances\n");
    return 1;
  }
  for (int attempt = 0; attempt < 5; ++attempt) {
    net::SolveRequestMsg filler = base;
    filler.by_name = true;
    filler.instance = names[0];
    filler.config.branch_seed = 0xC0FFEE00u + static_cast<unsigned>(attempt);
    net::SolveRequestMsg target = filler;
    target.instance = names[1];

    const std::uint64_t filler_id = submit_one(client, filler, "filler");
    const std::uint64_t target_id = submit_one(client, target, "target");
    if (filler_id == 0 || target_id == 0) return 1;

    bool hit = false;
    client.cancel(target_id, &hit);

    net::ResultMsg fr, tr;
    net::ErrorMsg err;
    if (!client.wait_result(target_id, &tr, &err) ||
        !client.wait_result(filler_id, &fr, &err)) {
      std::fprintf(stderr, "gvc_client: cancel-test: lost a result: %s\n",
                   err.message.c_str());
      return 1;
    }
    if (tr.status ==
        static_cast<std::uint8_t>(service::JobStatus::kCancelled)) {
      std::printf("cancel-test PASS: target %s/%s (cancel %s), filler %s\n",
                  wire_status_name(tr.status), vc::to_string(tr.outcome),
                  hit ? "hit" : "missed", wire_status_name(fr.status));
      return 0;
    }
    std::printf("cancel-test attempt %d inconclusive: target finished as "
                "%s/%s before the cancel landed, retrying\n",
                attempt, wire_status_name(tr.status),
                vc::to_string(tr.outcome));
  }
  std::fprintf(stderr, "gvc_client: cancel-test FAIL: target never "
                       "observed kCancelled\n");
  return 1;
}

// --deadline-test: a deadline of 1 microsecond is already hopeless by the
// time admission stamps it, so the job expires (at admission, at dequeue,
// or via kDeadline mid-solve — all surface as wire status kExpired).
int run_deadline_test(net::Client& client, net::SolveRequestMsg base,
                      const std::vector<std::string>& names) {
  net::SolveRequestMsg req = base;
  req.by_name = true;
  req.instance = names.front();
  req.config.branch_seed = 0xDEAD11FEu;  // dodge cache entries from batches
  req.deadline_s = 1e-6;

  const std::uint64_t id = submit_one(client, req, "deadline-test");
  if (id == 0) return 1;
  net::ResultMsg res;
  net::ErrorMsg err;
  if (!client.wait_result(id, &res, &err)) {
    std::fprintf(stderr, "gvc_client: deadline-test: no result: %s\n",
                 err.message.c_str());
    return 1;
  }
  const bool pass =
      res.status == static_cast<std::uint8_t>(service::JobStatus::kExpired);
  std::printf("deadline-test %s: %s/%s\n", pass ? "PASS" : "FAIL",
              wire_status_name(res.status), vc::to_string(res.outcome));
  return pass ? 0 : 1;
}

constexpr char kUsage[] =
    "usage: %s [SPECFILE] --connect HOST:PORT [options] (see the header of "
    "tools/gvc_client.cpp)\n";

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);

  if (!tools::check_flags(
          args,
          {"connect", "scale", "method", "time-limit", "deadline-ms", "jobs",
           "distinct", "upload", "cancel-test", "deadline-test",
           "cancel-after-ms", "quiet", "stats", "metrics-out", "shutdown"},
          kUsage, /*solver_flags=*/true))
    return 64;
  const std::optional<tools::HostPort> addr =
      tools::try_parse_host_port(args.get("connect", ""));
  if (!addr.has_value() || addr->port == 0) {
    std::fprintf(stderr, kUsage, args.program().c_str());
    return 64;
  }
  const std::optional<harness::Scale> scale =
      harness::try_parse_scale(args.get("scale", "smoke"));
  if (!scale.has_value()) {
    std::fprintf(stderr, "unknown --scale '%s'\n",
                 args.get("scale", "smoke").c_str());
    return 64;
  }
  const std::optional<parallel::Method> method = tools::parse_method_flag(args);
  if (!method.has_value()) return 64;

  net::SolveRequestMsg base;
  base.method = *method;
  if (!tools::parse_solver_flags(args, &base.config)) return 64;
  base.limits.time_limit_s = args.get_double("time-limit", 0.0);
  base.deadline_s = args.get_double("deadline-ms", 0.0) * 1e-3;

  const std::vector<harness::Instance> catalog = harness::paper_catalog(*scale);
  std::vector<std::string> names;
  names.reserve(catalog.size());
  for (const harness::Instance& inst : catalog) names.push_back(inst.name());

  net::Client client;
  std::string error;
  if (!client.connect(addr->host, addr->port, &error)) {
    std::fprintf(stderr, "gvc_client: cannot connect to %s:%d: %s\n",
                 addr->host.c_str(), addr->port, error.c_str());
    return 1;
  }
  if (!client.ping()) {
    std::fprintf(stderr, "gvc_client: ping failed\n");
    return 1;
  }

  int rc = 0;
  if (args.get_bool("cancel-test", false)) {
    rc = run_cancel_test(client, base, names);
  } else if (args.get_bool("deadline-test", false)) {
    rc = run_deadline_test(client, base, names);
  } else {
    // -----------------------------------------------------------------
    // Batch mode: build the request list, submit everything up front,
    // then collect results — the whole batch rides one connection.
    // -----------------------------------------------------------------
    std::vector<net::SolveRequestMsg> requests;
    std::vector<std::string> labels;
    const int distinct = std::max<int>(
        1, std::min<int>(static_cast<int>(names.size()),
                         static_cast<int>(args.get_int("distinct", 4))));
    if (!args.positional().empty()) {
      std::ifstream in(args.positional()[0]);
      if (!in.good()) {
        std::fprintf(stderr, "gvc_client: cannot open spec file '%s'\n",
                     args.positional()[0].c_str());
        return 64;
      }
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::string why;
        const std::optional<tools::SpecLine> spec =
            tools::try_parse_spec_line(line, &why);
        if (!spec.has_value()) {
          std::fprintf(stderr, "gvc_client: spec line '%s': %s\n",
                       line.c_str(), why.c_str());
          return 64;
        }
        net::SolveRequestMsg req = base;
        req.by_name = true;
        req.instance = spec->instance;
        if (spec->method.has_value()) req.method = *spec->method;
        if (spec->pvc) {
          req.config.problem = vc::Problem::kPvc;
          req.config.k = spec->k;
        }
        req.priority = spec->priority;
        if (spec->deadline_s > 0.0) req.deadline_s = spec->deadline_s;
        for (int i = 0; i < spec->repeat; ++i) {
          requests.push_back(req);
          labels.push_back(spec->instance);
        }
      }
    } else {
      const int jobs = static_cast<int>(args.get_int("jobs", 8));
      for (int i = 0; i < jobs; ++i) {
        net::SolveRequestMsg req = base;
        req.by_name = true;
        req.instance = names[static_cast<std::size_t>(i % distinct)];
        requests.push_back(req);
        labels.push_back(req.instance);
      }
    }
    if (requests.empty()) {
      std::fprintf(stderr, "gvc_client: empty workload\n");
      return 64;
    }

    // --upload: ship each referenced instance as a raw CSR blob once and
    // rewrite the requests to point at the uploaded graph ids.
    if (args.get_bool("upload", false)) {
      std::vector<std::string> uploaded;  // index + 1 == graph id
      for (net::SolveRequestMsg& req : requests) {
        std::size_t slot = 0;
        while (slot < uploaded.size() && uploaded[slot] != req.instance)
          ++slot;
        if (slot == uploaded.size()) {
          const harness::Instance* inst = nullptr;
          for (const harness::Instance& c : catalog)
            if (c.name() == req.instance) inst = &c;
          if (inst == nullptr) {
            std::fprintf(stderr, "gvc_client: --upload: '%s' not in the "
                         "local catalog\n", req.instance.c_str());
            return 64;
          }
          net::GraphAckMsg ack;
          net::ErrorMsg err;
          if (!client.upload_graph(slot + 1, inst->graph(), &ack, &err)) {
            std::fprintf(stderr, "gvc_client: upload '%s': %s (%s)\n",
                         req.instance.c_str(), err.message.c_str(),
                         net::error_code_name(err.code));
            return 1;
          }
          std::printf("uploaded %s: graph %llu, %u vertices, %llu edges\n",
                      req.instance.c_str(),
                      static_cast<unsigned long long>(ack.graph_id),
                      ack.num_vertices,
                      static_cast<unsigned long long>(ack.num_edges));
          uploaded.push_back(req.instance);
        }
        req.by_name = false;
        req.graph_id = slot + 1;
        req.instance.clear();
      }
    }

    std::vector<Submitted> live;
    live.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Submitted s;
      s.label = labels[i];
      s.sent_s = now_s();
      s.id = submit_one(client, requests[i], labels[i]);
      if (s.id == 0) {
        rc = 1;
        continue;
      }
      live.push_back(s);
    }
    std::printf("submitted %zu jobs to %s:%d\n", live.size(),
                addr->host.c_str(), addr->port);

    const double cancel_after_ms = args.get_double("cancel-after-ms", 0.0);
    if (cancel_after_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          cancel_after_ms));
      std::size_t cancelled = 0;
      for (const Submitted& s : live) {
        bool hit = false;
        if (client.cancel(s.id, &hit) && hit) ++cancelled;
      }
      std::printf("cancelled %zu jobs still in flight after %.0f ms\n",
                  cancelled, cancel_after_ms);
    }

    std::size_t by_status[6] = {0, 0, 0, 0, 0, 0};
    std::vector<double> latencies;
    latencies.reserve(live.size());
    for (const Submitted& s : live) {
      net::ResultMsg res;
      net::ErrorMsg err;
      if (!client.wait_result(s.id, &res, &err)) {
        std::fprintf(stderr, "gvc_client: job %llu (%s): %s (%s)\n",
                     static_cast<unsigned long long>(s.id), s.label.c_str(),
                     err.message.c_str(), net::error_code_name(err.code));
        rc = 1;
        continue;
      }
      latencies.push_back(now_s() - s.sent_s);
      if (res.status < 6) ++by_status[res.status];
      if (!args.get_bool("quiet", false))
        std::printf("  %-24s %-9s %-10s cover=%d nodes=%llu %.4fs\n",
                    s.label.c_str(), wire_status_name(res.status),
                    vc::to_string(res.outcome), res.best_size,
                    static_cast<unsigned long long>(res.tree_nodes),
                    res.seconds);
    }
    std::printf("results: %zu done, %zu expired, %zu cancelled, %zu "
                "rejected\n",
                by_status[2], by_status[3], by_status[4], by_status[5]);
    if (!latencies.empty())
      std::printf("turnaround: p50 %.4fs  p99 %.4fs  max %.4fs over %zu "
                  "jobs\n",
                  util::quantile(latencies, 0.5),
                  util::quantile(latencies, 0.99),
                  util::quantile(latencies, 1.0), latencies.size());
  }

  if (args.get_bool("stats", false) || args.has("metrics-out")) {
    std::string stats;
    if (!client.stats_json(&stats)) {
      std::fprintf(stderr, "gvc_client: stats fetch failed\n");
      rc = 1;
    } else {
      if (args.get_bool("stats", false)) std::printf("%s\n", stats.c_str());
      if (args.has("metrics-out")) {
        std::ofstream out(args.get("metrics-out"));
        if (!out.good()) {
          std::fprintf(stderr, "gvc_client: cannot write '%s'\n",
                       args.get("metrics-out").c_str());
          rc = 1;
        } else {
          out << stats << "\n";
        }
      }
    }
  }
  if (args.get_bool("shutdown", false)) {
    net::ErrorMsg err;
    if (!client.request_shutdown(&err)) {
      std::fprintf(stderr, "gvc_client: shutdown refused: %s (%s)\n",
                   err.message.c_str(), net::error_code_name(err.code));
      rc = 1;
    }
  }
  client.close();
  return rc;
}
