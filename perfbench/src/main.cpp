// perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload of the repository benchmark, prints every metric by
// name with its unit, and as the last line one JSON object with the keys
// correct, attempted, failed and metrics.  Exits 1 when an output check
// failed or a call threw, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

bool parse_args(int argc, char** argv, perfbench::RunArgs& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = value == "cluster_p3" || value == "cluster_csl" || value == "service_mix";
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 600.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload cluster_p3|cluster_csl|service_mix "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::MetricList metrics;
  perfbench::Tally tally;
  try {
    if (args.trace)
      perfbench::run_traced(args, metrics, tally);
    else
      perfbench::run_end_to_end(args, metrics, tally);
  } catch (const std::exception& e) {
    tally.fail(std::string("exception: ") + e.what());
  }

  for (const perfbench::Metric& m : metrics.items())
    std::printf("metric %-32s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("operations attempted %llu failed %llu\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (const std::string& e : tally.errors) std::printf("FAILED: %s\n", e.c_str());
  std::printf("%s\n", perfbench::result_json(tally.correct(), tally.attempted,
                                             tally.failed, metrics)
                          .c_str());
  return tally.correct() ? 0 : 1;
}
