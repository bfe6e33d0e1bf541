// planbench: the planner's end-to-end benchmark.
//
//   planbench --workload search_gpt3|search_deepnet|serve_mix --seed N
//             --seconds S --trace 0|1 [--spans-out FILE]
//
// Prints human-readable progress to stderr and, as the last line of stdout,
// one JSON object {"correct","attempted","failed","metrics"}. With --trace 0
// the metrics are the end-to-end metrics; with --trace 1 they are the
// per-layer metrics (see BENCHMARK.json at the repository root). Every
// workload reports every metric of the kind asked for.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "planbench/bench.h"

namespace {

bool ParseArgs(int argc, char** argv, planbench::Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "bad --seed %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        std::fprintf(stderr, "bad --seconds %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "bad --trace %s\n", value.c_str());
        return false;
      }
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  planbench::Args args;
  if (!ParseArgs(argc, argv, args)) {
    return 2;
  }
  const bool serve = args.workload == "serve_mix";
  if (!serve && args.workload != "search_gpt3" &&
      args.workload != "search_deepnet") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  planbench::Report report;
  bool ran = false;
  if (!args.trace) {
    ran = serve ? planbench::RunServeWorkload(args, report)
                : planbench::RunSearchWorkload(args, report);
  } else {
    // The workload's own layers get the run's time, the other probe a third
    // of it.
    planbench::SpanLog spans;
    const double probe = args.seconds / 3.0;
    ran = planbench::TraceSearchLayers(args.workload, args.seed,
                                       serve ? probe : args.seconds, !serve,
                                       report, spans) &&
          planbench::TraceServeLayers(args.workload, args.seed,
                                      serve ? args.seconds : probe, serve,
                                      report, spans);
    if (ran && !args.spans_out.empty() && !spans.WriteJsonLines(args.spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
    }
  }
  if (!ran) {
    return 1;
  }
  if (!report.correct) {
    std::fprintf(stderr, "output check failed: %s\n", report.failure.c_str());
  }
  std::printf("%s\n", report.ToJsonLine().c_str());
  return 0;
}
