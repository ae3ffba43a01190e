// The untraced run: every end-to-end metric of one workload, with the
// workload's own bench and two companion benches interleaved in rounds.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "core/checker.hpp"
#include "workloads.hpp"

namespace perfbench {

using csrl::Checker;
using csrl::Mrm;
using csrl::P3Engine;
namespace svc = csrl::service;

ClusterSetup cluster_setup() {
  ClusterSetup out;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = cpu_seconds();
    Mrm model = build_cluster();
    {
      const Checker checker(model, cluster_options(P3Engine::kSericola));
      out.setup_s.push_back(cpu_seconds() - t0);
    }
    out.model = std::move(model);
  }
  return out;
}

ServiceSetup service_setup() {
  ServiceSetup out;
  std::vector<int> workers;
  for (int i = 0; i < kSetupRepeats; ++i) {
    out.service.reset();  // joins the previous workers outside the timing
    out.ids.clear();
    const std::vector<int> before = thread_ids();
    const double t0 = cpu_seconds();
    out.models = service_models();
    out.service = std::make_unique<svc::CheckerService>(service_options());
    for (const auto& model : out.models) out.ids.push_back(out.service->register_model(model));
    out.setup_s.push_back(cpu_seconds() - t0);
    workers.clear();
    for (int tid : thread_ids())
      if (!std::binary_search(before.begin(), before.end(), tid)) workers.push_back(tid);
  }
  const std::vector<int> cpus = pin_threads(workers);
  std::printf("%zu service threads %s", workers.size(), cpus.empty() ? "not pinned" : "pinned to CPUs");
  for (int c : cpus) std::printf(" %d", c);
  std::printf("\n");
  return out;
}

namespace {

std::string fmt_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

void add_loop_metrics(const LoopBench& loop, const std::string& scope, MetricList& metrics,
                      Tally& tally) {
  const std::vector<double>& latency = loop.latency_ms();
  if (latency.size() < kMinLatencySamples) {
    tally.fail("closed loop too short: " + std::to_string(latency.size()) + " answers, " +
               std::to_string(kMinLatencySamples) + " needed");
    return;
  }
  std::vector<double> chunk_p99;
  for (std::size_t end = kLatencyChunk; end <= latency.size(); end += kLatencyChunk)
    chunk_p99.push_back(percentile(
        std::vector<double>(latency.begin() + static_cast<long>(end - kLatencyChunk),
                            latency.begin() + static_cast<long>(end)),
        99.0));
  metrics.add("served_qps", median(loop.segment_qps()), "1/s",
              "median over " + std::to_string(loop.segment_qps().size()) + " segments, " +
                  std::to_string(loop.ok()) + " kOk answers " + scope);
  metrics.add("query_p50_ms", percentile(latency, 50.0), "ms",
              "n=" + std::to_string(latency.size()) + " " + scope);
  // The whole run's tail, at the highest percentile it has ten samples
  // beyond, is printed beside the chunk median.
  const double tail = highest_supported_percentile(latency.size(), {99.0, 99.9, 99.99});
  metrics.add("query_p99_ms", median(chunk_p99), "ms",
              "p99 of each chunk of " + std::to_string(kLatencyChunk) + " answers (" +
                  std::to_string(samples_beyond(kLatencyChunk, 99.0)) +
                  " beyond), median over " + std::to_string(chunk_p99.size()) +
                  " chunks; whole run p" + fmt_number(tail) + " " +
                  fmt_number(percentile(latency, tail)) + " ms " + scope);
}

namespace {

/// One bench's share of every round: `unit` runs until the share of the
/// round is used (at least once).
struct Step {
  std::function<void(double slice_s)> unit;
  double share;
};

void interleave(const std::vector<Step>& steps, double total_s) {
  const double start = now_seconds();
  while (now_seconds() - start < total_s) {
    for (const Step& step : steps) {
      const double slice = step.share * kRoundSeconds;
      const double t0 = now_seconds();
      do step.unit(slice - (now_seconds() - t0));
      while (now_seconds() - t0 < slice);
    }
  }
}

}  // namespace

void run_end_to_end(const RunArgs& args, MetricList& metrics, Tally& tally) {
  const std::string companion =
      "(companion, " + std::to_string(kCompanionSide) + " per side)";
  const Mrm small = build_cluster(kCompanionSide);
  const auto add_setup = [&](const std::vector<double>& setup_s, const char* what) {
    metrics.add("setup_s", median(setup_s), "s",
                "median of " + std::to_string(setup_s.size()) + " set-ups (CPU time)" + what);
  };
  const auto add_lattices = [&](const LatticeBench& b, const std::string& note) {
    metrics.add("sericola_lattice_ms", b.stats()[0].value_ms(), "ms",
                b.stats()[0].describe() + " " + note);
    metrics.add("erlang_lattice_ms", b.stats()[1].value_ms(), "ms",
                b.stats()[1].describe() + " " + note);
    metrics.add("discretisation_lattice_ms", b.stats()[2].value_ms(), "ms",
                b.stats()[2].describe() + " " + note);
  };
  const auto add_suite = [&](const SuiteBench& b, const std::string& note) {
    metrics.add("csl_suite_ms", b.stats().value_ms(), "ms", b.stats().describe() + " " + note);
  };
  const auto lattice_step = [&](LatticeBench& b, double share) {
    return Step{[&b, &tally](double) { b.round(tally, nullptr); }, share};
  };
  const auto suite_step = [&](SuiteBench& b, double share) {
    return Step{[&b, &tally](double) { b.rep(tally, nullptr); }, share};
  };
  const auto loop_step = [&](LoopBench& b, double share) {
    return Step{[&b, &tally](double slice) { b.segment(slice, tally, nullptr); }, share};
  };
  // Closes a loop bench that still lacks samples (a very slow host).
  const auto top_up = [&](LoopBench& b) {
    for (int i = 0; i < 20 && b.latency_ms().size() < kMinLatencySamples; ++i)
      b.segment(kCompanionShare * kRoundSeconds, tally, nullptr);
  };

  if (args.workload == "cluster_p3" || args.workload == "cluster_csl") {
    const ClusterSetup setup = cluster_setup();
    add_setup(setup.setup_s, "");
    ServiceSetup service = service_setup();
    LoopBench loop(service, args.seed);
    loop.warm_up(tally);
    if (args.workload == "cluster_p3") {
      LatticeBench lattices(setup.model, cluster_lattices(args.seed));
      SuiteBench suite(small, csl_suite(args.seed), cluster_options(P3Engine::kSericola));
      lattices.warm_up(tally, nullptr);
      suite.warm_up(tally, nullptr);
      interleave({lattice_step(lattices, kMainShare), suite_step(suite, kCompanionShare),
                  loop_step(loop, kCompanionShare)},
                 args.seconds);
      top_up(loop);
      lattices.check_outputs(args.seed, tally);
      add_lattices(lattices, "");
      add_suite(suite, companion);
    } else {
      SuiteBench suite(setup.model, csl_suite(args.seed), cluster_options(P3Engine::kSericola));
      LatticeBench lattices(small, cluster_lattices(args.seed, kCompanionSide));
      suite.warm_up(tally, nullptr);
      lattices.warm_up(tally, nullptr);
      interleave({suite_step(suite, kMainShare), lattice_step(lattices, kCompanionShare),
                  loop_step(loop, kCompanionShare)},
                 args.seconds);
      top_up(loop);
      lattices.check_outputs(args.seed, tally);
      add_suite(suite, "");
      add_lattices(lattices, companion);
    }
    add_loop_metrics(loop, "(companion)", metrics, tally);
  } else if (args.workload == "service_mix") {
    ServiceSetup service = service_setup();
    add_setup(service.setup_s, " incl. lumping");
    LoopBench loop(service, args.seed);
    LatticeBench lattices(small, cluster_lattices(args.seed, kCompanionSide));
    SuiteBench suite(small, csl_suite(args.seed), cluster_options(P3Engine::kSericola));
    loop.warm_up(tally);
    lattices.warm_up(tally, nullptr);
    suite.warm_up(tally, nullptr);
    interleave({loop_step(loop, kMainShare), lattice_step(lattices, kCompanionShare),
                suite_step(suite, kCompanionShare)},
               args.seconds);
    top_up(loop);
    lattices.check_outputs(args.seed, tally);
    add_loop_metrics(loop, "", metrics, tally);
    add_lattices(lattices, companion);
    add_suite(suite, companion);
  } else {
    throw std::logic_error("unknown workload: " + args.workload);
  }
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
}

}  // namespace perfbench
