// The traced run: per-layer metrics from spans the benchmark records
// around its calls into each layer, plus the library's exact obs
// counters.  End-to-end metrics are never taken from this run; it only
// reports how much slower tracing made the workload's own metric.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "core/checker.hpp"
#include "core/engines/engine.hpp"
#include "ctmc/foxglynn.hpp"
#include "ctmc/stationary.hpp"
#include "ctmc/uniformisation.hpp"
#include "logic/parser.hpp"
#include "matrix/solvers.hpp"
#include "models/cluster.hpp"
#include "models/synthetic.hpp"
#include "mrm/lumping.hpp"
#include "mrm/transform.hpp"
#include "obs/obs.hpp"
#include "service/plan.hpp"
#include "srn/reachability.hpp"
#include "util/workspace.hpp"
#include "workloads.hpp"

namespace perfbench {

using csrl::Checker;
using csrl::CheckOptions;
using csrl::Mrm;
using csrl::P3Engine;
using csrl::StateSet;
namespace obs = csrl::obs;
namespace svc = csrl::service;

namespace {

/// Counters that depend only on the inputs (structure, not timing).  Two
/// runs of the same seed must read them identically.
const char* const kExactCounters[] = {
    "spmv/multiply",       "spmv/multiply_left",  "matrix/spmm/columns",
    "matrix/spmm/block_products", "cost/spmv/flops", "cost/spmv/bytes",
    "cost/spmm/flops",     "cost/spmm/bytes",     "cost/epilogue/flops",
    "cost/epilogue/bytes", "cost/solver/flops",   "cost/solver/bytes",
    "solver/iterations",   "foxglynn/windows",    "uniformisation/steps",
    "lump/sweeps",         "lump/splits",         "mrm/dual_transforms",
};

/// Counter deltas over a scope (recording must be on).
class CounterWindow {
 public:
  CounterWindow() : before_(obs::snapshot_metrics()) {}
  obs::MetricsSnapshot delta() const {
    return obs::metrics_delta(before_, obs::snapshot_metrics());
  }

 private:
  obs::MetricsSnapshot before_;
};

std::uint64_t spmv_equivalents(const obs::MetricsSnapshot& d) {
  return d.counter("spmv/multiply") + d.counter("spmv/multiply_left") +
         d.counter("matrix/spmm/columns");
}

std::uint64_t cost_bytes(const obs::MetricsSnapshot& d) {
  return d.counter("cost/spmv/bytes") + d.counter("cost/spmm/bytes") +
         d.counter("cost/epilogue/bytes") + d.counter("cost/solver/bytes");
}

/// Number of exact counters on which two windows disagree.
std::size_t count_mismatches(const obs::MetricsSnapshot& a,
                             const obs::MetricsSnapshot& b) {
  std::size_t n = 0;
  for (const char* c : kExactCounters) n += a.counter(c) != b.counter(c);
  return n;
}

/// Median duration (ms) of `reps` calls of `fn`, each in its own span.
template <typename Fn>
double timed(Tracer& tracer, const std::string& span, std::size_t reps, Fn&& fn) {
  for (std::size_t i = 0; i < reps; ++i) {
    Span s(&tracer, span);
    fn();
  }
  const std::vector<double> all = tracer.durations_ms(span);
  return median(std::vector<double>(all.end() - static_cast<long>(reps), all.end()));
}

/// Last-level cache size from sysconf, else 32 MiB.
std::size_t last_level_cache_bytes() {
  for (int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return std::size_t{32} << 20;
}

/// Read bandwidth of `lanes` threads summing an array four times the
/// last-level cache: the roof the computed kernel bandwidths sit under.
struct StreamProbe {
  std::size_t llc_bytes = 0;
  std::size_t array_bytes = 0;
  double gbps = 0.0;
};
StreamProbe stream_probe(std::size_t lanes, Tracer& tracer) {
  StreamProbe probe;
  probe.llc_bytes = last_level_cache_bytes();
  const std::size_t n = 4 * probe.llc_bytes / sizeof(double);
  probe.array_bytes = n * sizeof(double);
  std::vector<double> data(n, 1.0);
  std::vector<double> partial(lanes, 0.0);
  const auto pass = [&] {
    std::vector<std::thread> threads;
    for (std::size_t l = 0; l < lanes; ++l)
      threads.emplace_back([&, l] {
        double acc = 0.0;
        for (std::size_t i = n * l / lanes; i < n * (l + 1) / lanes; ++i) acc += data[i];
        partial[l] = acc;
      });
    for (std::thread& t : threads) t.join();
  };
  pass();  // untimed: faults the pages in
  const double ms = timed(tracer, "bench/stream_sum", 5, pass);
  double total = 0.0;
  for (double p : partial) total += p;
  if (total != static_cast<double>(n))
    throw std::logic_error("stream probe summed the wrong total");
  probe.gbps = static_cast<double>(probe.array_bytes) / (ms * 1e-3) / 1e9;
  return probe;
}

/// Per-parse (or per-plan) cost in microseconds: median over batches of
/// one pass through `texts`.
template <typename Fn>
double per_text_us(Tracer& tracer, const std::string& span,
                   const std::vector<std::string>& texts, Fn&& fn) {
  const double start = now_seconds();
  std::size_t batches = 0;
  while (batches < 20 || now_seconds() - start < 0.3) {
    Span s(&tracer, span);
    for (const std::string& t : texts) fn(t);
    ++batches;
  }
  const std::vector<double> all = tracer.durations_ms(span);
  return median(std::vector<double>(all.end() - static_cast<long>(batches), all.end())) *
         1e3 / static_cast<double>(texts.size());
}

struct Tag {
  const char* name;
  const char* unit;
  const char* moves;  // end-to-end metric @ workload this layer should move
};

// Every per-layer metric, its unit and the end-to-end metric it should
// move (BENCHMARK.json lists the same names).
const Tag kTags[] = {
    {"srn.explore_s", "s", "setup_s @ cluster_*"},
    {"srn.states", "count", "setup_s @ cluster_*"},
    {"mrm.lump_s", "s", "setup_s @ service_mix"},
    {"mrm.lump_blocks", "count", "setup_s @ service_mix"},
    {"mrm.dual_s", "s", "csl_suite_ms @ cluster_csl"},
    {"matrix.spmv_ms", "ms", "csl_suite_ms @ cluster_csl"},
    {"matrix.spmm_w8_ms", "ms", "sericola/discretisation_lattice_ms @ cluster_p3"},
    {"matrix.spmm_vs_spmv_x", "x", "lattice metrics @ cluster_p3 (8 SpMV / 1 SpMM-8)"},
    {"matrix.spmv_gbps_computed", "GB/s", "csl_suite_ms @ cluster_csl (cost-model bytes / wall)"},
    {"matrix.spmm_gbps_computed", "GB/s", "lattice metrics @ cluster_p3 (cost-model bytes / wall)"},
    {"matrix.stream_gbps", "GB/s", "roof for the two computed bandwidths"},
    {"matrix.solver_ms", "ms", "csl_suite_ms @ cluster_csl"},
    {"matrix.solver_iters", "count", "csl_suite_ms @ cluster_csl"},
    {"ctmc.transient_ms", "ms", "csl_suite_ms @ cluster_csl"},
    {"ctmc.foxglynn_window", "count", "csl_suite_ms @ cluster_csl"},
    {"ctmc.stationary_ms", "ms", "csl_suite_ms @ cluster_csl"},
    {"engine.sericola.grid_ms", "ms", "sericola_lattice_ms @ cluster_p3"},
    {"engine.sericola.grid_2t_ms", "ms", "sericola_lattice_ms @ cluster_p3"},
    {"engine.sericola.speedup", "x", "sericola_lattice_ms @ cluster_p3"},
    {"engine.sericola.spmv", "count", "sericola_lattice_ms @ cluster_p3"},
    {"engine.sericola.bytes", "B", "sericola_lattice_ms @ cluster_p3"},
    {"engine.erlang.grid_ms", "ms", "erlang_lattice_ms @ cluster_p3"},
    {"engine.erlang.grid_2t_ms", "ms", "erlang_lattice_ms @ cluster_p3"},
    {"engine.erlang.speedup", "x", "erlang_lattice_ms @ cluster_p3"},
    {"engine.erlang.spmv", "count", "erlang_lattice_ms @ cluster_p3"},
    {"engine.erlang.bytes", "B", "erlang_lattice_ms @ cluster_p3"},
    {"engine.discretisation.grid_ms", "ms", "discretisation_lattice_ms @ cluster_p3"},
    {"engine.discretisation.grid_2t_ms", "ms", "discretisation_lattice_ms @ cluster_p3"},
    {"engine.discretisation.speedup", "x", "discretisation_lattice_ms @ cluster_p3"},
    {"engine.discretisation.spmv", "count", "discretisation_lattice_ms @ cluster_p3"},
    {"engine.discretisation.bytes", "B", "discretisation_lattice_ms @ cluster_p3"},
    {"checker.sat_ms", "ms", "lattice metrics @ cluster_p3, csl_suite_ms @ cluster_csl"},
    {"checker.overhead_ms", "ms", "sericola_lattice_ms @ cluster_p3 (operand Sat sets + Theorem-1 reduction)"},
    {"checker.sat_cache_hit_ratio", "ratio", "query_p50_ms @ service_mix"},
    {"logic.parse_us", "us", "query_p50_ms @ service_mix"},
    {"service.plan_us", "us", "query_p50_ms @ service_mix"},
    {"service.register_s", "s", "setup_s @ service_mix"},
    {"service.queries_per_batch", "ratio", "served_qps @ service_mix"},
    {"service.queries_per_batch_spread", "ratio", "served_qps @ service_mix (timing-dependent)"},
    {"service.lattice_share", "ratio", "served_qps @ service_mix"},
    {"service.rejected", "count", "served_qps @ service_mix"},
    {"service.failed", "count", "served_qps @ service_mix"},
    {"pool.dispatches", "count", "lattice metrics @ cluster_p3, query_p50_ms @ service_mix"},
    {"pool.inline_runs", "count", "lattice metrics @ cluster_p3, query_p50_ms @ service_mix"},
    {"pool.idle_ms", "ms", "lattice metrics @ cluster_p3, query_p50_ms @ service_mix"},
    {"workspace.allocs_in_loop", "count", "must stay 0"},
    {"counts.mismatches", "count", "exact counters differing between two same-seed reps; must be 0"},
    {"trace.overhead_pct", "%", "traced minus untraced own metric, over untraced"},
};

class LayerMetrics {
 public:
  explicit LayerMetrics(MetricList& out) : out_(out) {}
  void set(const std::string& name, double value, const std::string& note = "") {
    values_[name] = {value, note};
  }
  void note(const std::string& name, const std::string& text) { values_.at(name).second = text; }
  /// Emits every tagged metric in table order; a missing one is a bug.
  void emit() {
    for (const Tag& tag : kTags) {
      const auto it = values_.find(tag.name);
      if (it == values_.end())
        throw std::logic_error(std::string("per-layer metric not measured: ") + tag.name);
      std::string note = std::string("-> ") + tag.moves;
      if (!it->second.second.empty()) note += "; " + it->second.second;
      out_.add(tag.name, it->second.first, tag.unit, note);
    }
  }

 private:
  MetricList& out_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The kernel-layer probes, run on the workload's kernel model (the
/// 48-per-side cluster, or in service_mix the 16-per-side one its
/// companion passes use; both carry the premium / minimum labels).
void probe_kernel_layers(const Mrm& model, std::size_t side, const ClusterLattices& lattices,
                         Tracer& tracer, LayerMetrics& lm, Tally& tally) {
  const std::size_t lanes = kPoolLanes;
  const Checker plain(model, cluster_options(P3Engine::kSericola, lanes));

  // srn: exploration of the SRN behind the model.
  {
    csrl::ClusterParams params;
    params.workstations_per_side = side;
    const csrl::Srn net = csrl::build_cluster_srn(params);
    std::size_t states = 0;
    const double ms = timed(tracer, "srn/explore", 3,
                            [&] { states = csrl::explore(net).model.num_states(); });
    lm.set("srn.explore_s", ms * 1e-3);
    lm.set("srn.states", static_cast<double>(states));
  }

  // mrm: duality on the P2 reduction (phi = minimum, psi = !premium).
  {
    StateSet absorb = plain.sat(*csrl::parse_formula("!minimum | !premium"));
    const Mrm reduced = csrl::make_absorbing(model, absorb, false);
    const double ms = timed(tracer, "mrm/dual", 3, [&] { (void)csrl::dual(reduced); });
    lm.set("mrm.dual_s", ms * 1e-3);
  }

  // matrix: one-RHS SpMV and width-8 SpMM on the uniformised matrix.
  const double lambda = model.chain().max_exit_rate();
  const csrl::CsrMatrix p = model.chain().uniformised_dtmc(lambda);
  const std::size_t n = p.rows();
  {
    std::vector<double> x(n, 1.0 / static_cast<double>(n)), y(n);
    std::vector<double> xb(n * 8, 1.0 / static_cast<double>(n)), yb(n * 8);
    p.multiply(x, y);  // warm the kernel caches
    p.multiply_block(xb, yb, 8, 8);
    std::uint64_t spmv_bytes = 0, spmm_bytes = 0;
    {
      CounterWindow w;
      p.multiply(x, y);
      spmv_bytes = w.delta().counter("cost/spmv/bytes");
    }
    {
      CounterWindow w;
      p.multiply_block(xb, yb, 8, 8);
      spmm_bytes = w.delta().counter("cost/spmm/bytes");
    }
    const std::size_t reps = std::max<std::size_t>(20, 4'000'000 / (p.nnz() + 1));
    const double spmv_ms = timed(tracer, "matrix/spmv", reps, [&] { p.multiply(x, y); });
    const double spmm_ms =
        timed(tracer, "matrix/spmm_w8", reps / 4 + 1, [&] { p.multiply_block(xb, yb, 8, 8); });
    lm.set("matrix.spmv_ms", spmv_ms, std::to_string(n) + " rows, " + std::to_string(p.nnz()) + " nnz");
    lm.set("matrix.spmm_w8_ms", spmm_ms);
    lm.set("matrix.spmm_vs_spmv_x", 8.0 * spmv_ms / spmm_ms);
    lm.set("matrix.spmv_gbps_computed", static_cast<double>(spmv_bytes) / (spmv_ms * 1e-3) / 1e9,
           std::to_string(spmv_bytes) + " B per product");
    lm.set("matrix.spmm_gbps_computed", static_cast<double>(spmm_bytes) / (spmm_ms * 1e-3) / 1e9,
           std::to_string(spmm_bytes) + " B per product");
  }
  {
    const StreamProbe probe = stream_probe(lanes, tracer);
    lm.set("matrix.stream_gbps", probe.gbps,
           std::to_string(lanes) + " threads summing " + std::to_string(probe.array_bytes >> 20) +
               " MiB = 4 x last-level cache of " + std::to_string(probe.llc_bytes >> 20) + " MiB");
  }
  // The allocation-free-loop contract: a second call on a warmed arena
  // leases every buffer from it (the engines' grid entry points own a
  // per-call arena, so only these two layers take one from the caller).
  csrl::Workspace arena;
  std::uint64_t warm_allocs = 0;
  {
    csrl::SolverOptions solver;
    solver.workspace = &arena;
    (void)csrl::power_stationary(p, solver);
    CounterWindow w;
    const double ms = timed(tracer, "matrix/power_stationary", 1,
                            [&] { (void)csrl::power_stationary(p, solver); });
    lm.set("matrix.solver_ms", ms, "power_stationary on the uniformised matrix");
    lm.set("matrix.solver_iters", static_cast<double>(w.delta().counter("solver/iterations")));
    warm_allocs += w.delta().counter("matrix/solver/allocs_in_loop");
  }

  // ctmc: transient distribution at the P1 horizon, Fox-Glynn window,
  // stationary distribution of the whole (irreducible) chain.
  {
    const double horizon = 24.0;
    csrl::TransientOptions transient;
    transient.workspace = &arena;
    (void)csrl::transient_distribution(model.chain(), model.initial_distribution(), horizon,
                                       transient);
    CounterWindow w;
    const double ms = timed(tracer, "ctmc/transient_distribution", 3, [&] {
      (void)csrl::transient_distribution(model.chain(), model.initial_distribution(), horizon,
                                         transient);
    });
    lm.set("ctmc.transient_ms", ms, "t = 24");
    warm_allocs += w.delta().counter("uniformisation/allocs_in_loop");
    lm.set("workspace.allocs_in_loop", static_cast<double>(warm_allocs),
           "solver and transient calls on a warmed arena");
    if (warm_allocs != 0) tally.fail("a warmed solver or transient loop allocated");
    const csrl::PoissonWeights fg = csrl::poisson_weights(lambda * horizon, 1e-10);
    lm.set("ctmc.foxglynn_window", static_cast<double>(fg.right - fg.left + 1));
    std::vector<std::size_t> all(n);
    for (std::size_t s = 0; s < n; ++s) all[s] = s;
    lm.set("ctmc.stationary_ms", timed(tracer, "ctmc/component_stationary", 3, [&] {
             (void)csrl::component_stationary(model.chain(), all);
           }));
  }

  // core/engines: direct grid calls on the Theorem-1 reduction, at the
  // workload's pool size and at kScalingLanes; exact counts per call.
  const StateSet phi = plain.sat(*lattices.main.phi);
  const StateSet psi = plain.sat(*lattices.main.psi);
  lm.set("checker.sat_ms", timed(tracer, "checker/sat", 10, [&] {
           CheckOptions no_cache = cluster_options(P3Engine::kSericola, lanes);
           no_cache.cache_sat_sets = false;
           const Checker c(model, no_cache);
           (void)c.sat(*lattices.main.phi);
           (void)c.sat(*lattices.main.psi);
         }));
  const csrl::UntilReduction reduction = csrl::reduce_for_until(model, phi, psi);
  StateSet target(reduction.model.num_states());
  target.insert(reduction.success_state);
  std::size_t mismatches = 0;
  double sericola_grid_ms = 0.0;
  for (P3Engine e : {P3Engine::kSericola, P3Engine::kErlang, P3Engine::kDiscretisation}) {
    const std::string name = e == P3Engine::kSericola ? "sericola"
                             : e == P3Engine::kErlang ? "erlang"
                                                      : "discretisation";
    const csrl::BatchQuery& q = e == P3Engine::kDiscretisation ? lattices.coarse : lattices.main;
    const auto call = [&](const csrl::JointDistributionEngine& engine, const std::string& span) {
      CounterWindow w;
      {
        Span s(&tracer, span);
        (void)engine.joint_probability_all_starts_grid(reduction.model, q.times, q.rewards, target);
      }
      return w.delta();
    };
    const std::string span = "engine/" + name + "/grid";
    const auto engine = csrl::make_engine(cluster_options(e, lanes));
    const obs::MetricsSnapshot first = call(*engine, span);
    const obs::MetricsSnapshot second = call(*engine, span);
    mismatches += count_mismatches(first, second);
    call(*csrl::make_engine(cluster_options(e, kScalingLanes)), span + "_wide");
    (void)csrl::make_engine(cluster_options(e, lanes));  // restore the pool size
    const double ms = median(tracer.durations_ms(span));
    const double ms_wide = median(tracer.durations_ms(span + "_wide"));
    if (e == P3Engine::kSericola) sericola_grid_ms = ms;
    lm.set("engine." + name + ".grid_ms", ms, std::to_string(lanes) + " lane");
    lm.set("engine." + name + ".grid_2t_ms", ms_wide,
           std::to_string(kScalingLanes) + " lanes");
    lm.set("engine." + name + ".speedup", ms / ms_wide,
           "grid_ms / grid_2t_ms");
    lm.set("engine." + name + ".spmv", static_cast<double>(spmv_equivalents(first)),
           "SpMV + SpMM columns");
    lm.set("engine." + name + ".bytes", static_cast<double>(cost_bytes(first)), "cost-model bytes");
  }
  // The checker's own work around the engine call in until_grid: the
  // operand Sat sets and the Theorem-1 reduction.  The difference of the
  // two timings is printed beside it.
  lm.set("checker.overhead_ms", timed(tracer, "checker/sat_and_reduce", 5, [&] {
           CheckOptions no_cache = cluster_options(P3Engine::kSericola, lanes);
           no_cache.cache_sat_sets = false;
           const Checker c(model, no_cache);
           (void)csrl::reduce_for_until(model, c.sat(*lattices.main.phi),
                                        c.sat(*lattices.main.psi));
         }));
  const double until_ms = timed(tracer, "checker/until_grid", 2, [&] {
    (void)Checker(model, cluster_options(P3Engine::kSericola, lanes)).until_grid(lattices.main);
  });
  lm.note("checker.overhead_ms", "until_grid " + std::to_string(until_ms) + " ms vs engine " +
                                     std::to_string(sericola_grid_ms) + " ms");
  lm.set("counts.mismatches", static_cast<double>(mismatches));
  if (mismatches != 0) tally.fail("exact counters differ between two same-seed engine calls");
}

void write_trace(const Tracer& tracer, const RunArgs& args) {
  if (args.trace_out.empty()) return;
  std::ofstream out(args.trace_out);
  out << tracer.chrome_json();
  if (!out) throw std::runtime_error("cannot write " + args.trace_out);
}

void print_span_summary(const Tracer& tracer) {
  std::printf("%-36s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const Tracer::Summary& s : tracer.summarize())
    std::printf("%-36s %8zu %12.3f %12.3f\n", s.name.c_str(), s.count, s.total_ms, s.self_ms);
}

}  // namespace

void run_traced(const RunArgs& args, MetricList& metrics, Tally& tally) {
  Tracer tracer;
  LayerMetrics lm(metrics);
  const double pass_s = std::max(1.0, args.seconds / 4.0);
  const ClusterLattices lattices = cluster_lattices(args.seed);

  // The workload's own pass twice: untraced, then traced with the
  // library's counters on.  Their difference is the tracing overhead.
  obs::MetricsSnapshot counted;  // the traced pass
  obs::MetricsSnapshot pool;     // the layer probes
  double untraced = 0.0, traced = 0.0;
  std::vector<std::string> texts;

  if (args.workload == "cluster_p3" || args.workload == "cluster_csl") {
    ClusterSetup setup;
    {
      Span s(&tracer, "bench/setup");
      setup = cluster_setup();
    }
    const bool p3 = args.workload == "cluster_p3";
    const auto suite_texts = csl_suite(args.seed);
    LatticeBench lattice_bench(setup.model, lattices);
    SuiteBench suite_bench(setup.model, suite_texts, cluster_options(P3Engine::kSericola));
    if (p3)
      lattice_bench.warm_up(tally, nullptr);
    else
      suite_bench.warm_up(tally, nullptr);
    // The end-to-end statistic (RepStats) over the reps one pass adds,
    // Sericola's or the suite's.
    const auto pass = [&](Tracer* t) {
      const RepStats& stats = p3 ? lattice_bench.stats()[0] : suite_bench.stats();
      const std::size_t from = stats.ms.size();
      const double start = now_seconds();
      while (stats.ms.size() < from + 3 || now_seconds() - start < pass_s) {
        if (p3)
          lattice_bench.round(tally, t);
        else
          suite_bench.rep(tally, t);
      }
      return percentile(
          std::vector<double>(stats.ms.begin() + static_cast<long>(from), stats.ms.end()),
          kRepPercentile);
    };
    untraced = pass(nullptr);
    {
      obs::ScopedRecording on;
      CounterWindow w;
      Span s(&tracer, p3 ? "bench/lattice_pass" : "bench/suite_pass");
      traced = pass(&tracer);
      counted = w.delta();
    }
    for (double t : lattices.main.times)
      for (double r : lattices.main.rewards) texts.push_back(point_formula(t, r));
    if (!p3) texts = suite_texts;

    obs::ScopedRecording on;
    CounterWindow probes;
    std::size_t blocks = 0;
    lm.set("mrm.lump_s", timed(tracer, "mrm/lump", 3, [&] {
             blocks = csrl::lump(setup.model).num_blocks;
           }) * 1e-3, "lump() of the 48-per-side cluster");
    lm.set("mrm.lump_blocks", static_cast<double>(blocks));
    const auto shared = std::make_shared<const Mrm>(setup.model);
    lm.set("service.register_s", timed(tracer, "service/register_model", 3, [&] {
             svc::ServiceOptions inline_only;
             inline_only.workers = 0;
             svc::CheckerService service(inline_only);
             (void)service.register_model(shared);
           }) * 1e-3, "one cluster registration, default options");
    probe_kernel_layers(setup.model, kClusterSide, lattices, tracer, lm, tally);
    pool = probes.delta();
    lm.set("service.queries_per_batch", 0.0, "no service on this workload");
    lm.set("service.queries_per_batch_spread", 0.0, "no service on this workload");
    lm.set("service.lattice_share", 0.0, "no service on this workload");
    lm.set("service.rejected", 0.0);
    lm.set("service.failed", 0.0);
    lm.set("trace.overhead_pct", 100.0 * (traced / untraced - 1.0),
           std::string(p3 ? "sericola_lattice_ms" : "csl_suite_ms") + " traced " +
               std::to_string(traced) + " vs untraced " + std::to_string(untraced));
  } else if (args.workload == "service_mix") {
    ServiceSetup setup;
    {
      Span s(&tracer, "bench/setup");
      setup = service_setup();
    }
    LoopBench loop(setup, args.seed);
    loop.warm_up(tally);
    loop.segment(pass_s, tally, nullptr);
    untraced = percentile(loop.latency_ms(), 50.0);
    const std::size_t untraced_samples = loop.latency_ms().size();
    const svc::ServiceStats before = loop.service_stats();
    std::vector<double> per_batch;
    {
      obs::ScopedRecording on;
      CounterWindow w;
      Span s(&tracer, "bench/closed_loop");
      // Three segments: batch composition depends on timing, so report
      // its spread rather than expect a repeatable count.
      for (int seg = 0; seg < 3; ++seg) {
        const svc::ServiceStats at = loop.service_stats();
        loop.segment(pass_s / 3.0, tally, &tracer);
        const svc::ServiceStats& now = loop.service_stats();
        per_batch.push_back(static_cast<double>(now.completed - at.completed) /
                            static_cast<double>(std::max<std::uint64_t>(1, now.batches - at.batches)));
      }
      counted = w.delta();
    }
    if (loop.max_in_flight() > kInFlight) tally.fail("closed loop exceeded its in-flight limit");
    traced = percentile(std::vector<double>(loop.latency_ms().begin() +
                                                static_cast<long>(untraced_samples),
                                            loop.latency_ms().end()),
                        50.0);
    for (const MixQuery& q : loop.mix()) texts.push_back(q.text);
    svc::ServiceStats totals = loop.service_stats();
    totals.completed -= before.completed;
    totals.batches -= before.batches;
    totals.lattice_passes -= before.lattice_passes;
    totals.rejected -= before.rejected;
    totals.failed -= before.failed;

    const double batches = static_cast<double>(std::max<std::uint64_t>(1, totals.batches));
    lm.set("service.queries_per_batch", static_cast<double>(totals.completed) / batches,
           std::to_string(totals.completed) + " answers / " + std::to_string(totals.batches) +
               " batches");
    std::sort(per_batch.begin(), per_batch.end());
    lm.set("service.queries_per_batch_spread", (per_batch.back() - per_batch.front()) / per_batch[1],
           "(max - min) / median over 3 segments");
    lm.set("service.lattice_share", static_cast<double>(totals.lattice_passes) / batches);
    lm.set("service.rejected", static_cast<double>(totals.rejected));
    lm.set("service.failed", static_cast<double>(totals.failed));
    if (totals.rejected + totals.failed != 0) tally.fail("service rejected or failed queries");
    setup.service->shutdown();

    obs::ScopedRecording on;
    CounterWindow probes;
    {
      const Mrm machines = csrl::independent_machines_mrm(15, 0.1, 1.0);
      std::size_t blocks = 0;
      lm.set("mrm.lump_s", timed(tracer, "mrm/lump", 3, [&] {
               blocks = csrl::lump(machines).num_blocks;
             }) * 1e-3, "lump() of independent_machines_mrm(15)");
      lm.set("mrm.lump_blocks", static_cast<double>(blocks));
    }
    lm.set("service.register_s", timed(tracer, "service/register_model", 3, [&] {
             svc::CheckerService service(service_options());
             for (const auto& model : setup.models) (void)service.register_model(model);
           }) * 1e-3, "all five models, lumping on");
    const Mrm small = build_cluster(kCompanionSide);
    probe_kernel_layers(small, kCompanionSide, cluster_lattices(args.seed, kCompanionSide), tracer,
                        lm, tally);
    pool = probes.delta();
    lm.set("trace.overhead_pct", 100.0 * (traced / untraced - 1.0),
           "query_p50_ms traced " + std::to_string(traced) + " vs untraced " +
               std::to_string(untraced));
  } else {
    throw std::logic_error("unknown workload: " + args.workload);
  }

  // Layers read from the counters of the traced pass.
  {
    const std::string scope = "over the traced pass";
    const double hits = static_cast<double>(counted.counter("core/sat_cache/hits"));
    const double misses = static_cast<double>(counted.counter("core/sat_cache/misses"));
    lm.set("checker.sat_cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
           std::to_string(static_cast<long>(hits)) + " hits, " +
               std::to_string(static_cast<long>(misses)) + " misses " + scope);
    const auto both = [&](const char* c) {
      return static_cast<double>(counted.counter(c) + pool.counter(c));
    };
    lm.set("pool.dispatches", both("pool/dispatches"), "traced pass and layer probes");
    lm.set("pool.inline_runs", both("pool/inline_runs"), "traced pass and layer probes");
    lm.set("pool.idle_ms", both("pool/worker_idle_ns") * 1e-6, "traced pass and layer probes");
  }
  lm.set("logic.parse_us", per_text_us(tracer, "logic/parse_formula", texts,
                                       [](const std::string& t) { (void)csrl::parse_formula(t); }),
         std::to_string(texts.size()) + " texts");
  lm.set("service.plan_us", per_text_us(tracer, "service/plan_query", texts,
                                        [](const std::string& t) { (void)svc::plan_query(t); }));
  lm.emit();
  print_span_summary(tracer);
  write_trace(tracer, args);
}

}  // namespace perfbench
