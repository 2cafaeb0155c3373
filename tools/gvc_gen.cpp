// gvc_gen — graph instance generator.
//
//   gvc_gen --family F --out PATH [params]          parametric families
//   gvc_gen --instance NAME --out PATH [--scale S]  paper-catalog stand-ins
//   gvc_gen --list                                  show families/instances
//
// The output format follows the extension of PATH (.col/.clq → DIMACS,
// .graph/.metis → METIS, .gr → PACE, else edge list).
//
// Family parameters: --n, --n2, --p, --p2, --m, --edges, --seed,
// --complement (see src/harness/families.hpp).

#include <cstdio>

#include "cli_common.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "harness/catalog.hpp"
#include "harness/families.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace {

constexpr char kUsage[] =
    "usage: %s --family F --out PATH [params] | --instance NAME --out PATH "
    "[--scale S] | --list\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace gvc;
  util::Args args(argc, argv);

  if (!tools::check_flags(args,
                          {"list", "out", "family", "instance", "scale", "n",
                           "n2", "p", "p2", "m", "edges", "seed", "complement"},
                          kUsage))
    return 64;
  if (args.get_bool("list", false)) {
    std::printf("families (--family):\n");
    for (const auto& f : harness::family_catalog())
      std::printf("  %-11s %s\n", f.name.c_str(), f.description.c_str());
    std::printf("\npaper catalog (--instance, --scale smoke|default|large):\n");
    for (const auto& inst :
         harness::paper_catalog(harness::Scale::kSmoke))
      std::printf("  %-22s %s\n", inst.name().c_str(),
                  inst.family().c_str());
    return 0;
  }

  if (!args.has("out") || (!args.has("family") && !args.has("instance"))) {
    std::fprintf(stderr, kUsage, args.program().c_str());
    return 64;
  }

  graph::CsrGraph g;
  if (args.has("instance")) {
    auto catalog =
        harness::paper_catalog(harness::parse_scale(args.get("scale", "smoke")));
    g = harness::find_instance(catalog, args.get("instance")).graph();
  } else {
    harness::FamilyParams params;
    params.n = static_cast<graph::Vertex>(args.get_int("n", 100));
    params.n2 = static_cast<graph::Vertex>(args.get_int("n2", 0));
    params.p = args.get_double("p", 0.1);
    params.p2 = args.get_double("p2", 0.5);
    params.m = static_cast<int>(args.get_int("m", 2));
    params.edges = args.get_int("edges", 0);
    params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    params.take_complement = args.get_bool("complement", false);
    g = harness::make_family(args.get("family"), params);
  }

  graph::save_graph(args.get("out"), g);
  std::printf("wrote %s: %s\n", args.get("out").c_str(),
              graph::compute_stats(g).to_string().c_str());
  return 0;
}
