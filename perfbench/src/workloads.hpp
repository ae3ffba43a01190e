// The three workloads of the repository benchmark and the measurements
// both the untraced and the traced run share.
//
//   cluster_p3   workstation cluster (48 per side), one P3 lattice per
//                engine: P3 engines and blocked multi-RHS SpMM work.
//   cluster_csl  same model, a CSL suite without P3: single-RHS SpMV,
//                uniformisation, Fox-Glynn, stationary solvers, duality.
//   service_mix  one CheckerService in a closed loop over ~100 textual
//                queries on five small models: parsing, planning,
//                queueing, coalescing, the Sat cache and pool dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/options.hpp"
#include "harness.hpp"
#include "mrm/mrm.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace perfbench {

// Fixed configuration, recorded in BENCHMARK.json.  Every bench and the
// service run on a pool of kPoolLanes lanes: each kernel runs on its
// caller, so a rep's CPU time is its work.  At two lanes the Sericola
// lattice ran no faster (its CPU time equalled its wall time) and its
// per-rep times spread wider.  Generator + service workers stay within
// the 4 CPUs of the reference host.  The traced run also times the
// engines at kScalingLanes, for their parallel speedup.
constexpr std::size_t kClusterSide = 48;    // 19,208 states
constexpr std::size_t kPoolLanes = 1;
constexpr std::size_t kScalingLanes = 2;
constexpr std::size_t kServiceWorkers = 2;  // service_mix
constexpr std::size_t kInFlight = 64;       // service_mix closed loop
constexpr std::size_t kErlangPhases = 16;
constexpr double kDiscretisationStep = 1.0 / 16.0;
constexpr int kSetupRepeats = 9;
constexpr double kRepPercentile = 90.0;  // see RepStats

/// Agreement the approximate engines must reach with Sericola on every
/// state and lattice cell (absolute).  Both are first-order methods at the
/// fixed phases / step above.
constexpr double kErlangTolerance = 2e-3;
constexpr double kDiscretisationTolerance = 2e-2;

/// Operations attempted and failed in one run, and why any failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void pass() { ++attempted; }
  void fail(const std::string& why);
  bool correct() const { return failed == 0; }
};

/// Command-line of one run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  /// Where the traced run writes its spans (chrome trace JSON); empty
  /// writes nothing.
  std::string trace_out;
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// ------------------------------------------------------------- cluster_*

csrl::CheckOptions cluster_options(csrl::P3Engine engine, std::size_t threads = kPoolLanes);

/// The 48-per-side cluster MRM (SRN exploration plus labelling).
csrl::Mrm build_cluster(std::size_t side = kClusterSide);

/// `premium U[0,t]{0,r} !premium` over a seeded lattice.  The largest
/// time and reward are fixed so every seed costs the same; the inner
/// axis points are drawn from the seed.  Each lattice takes a few hundred
/// milliseconds at 48 per side, so a run collects enough reps for a
/// steady median.  The discretisation lattice sits on the d-grid: one
/// step, up to 16 reward cells (one step already costs more than the
/// Sericola lattice).
struct ClusterLattices {
  csrl::BatchQuery main;    // Sericola and pseudo-Erlang
  csrl::BatchQuery coarse;  // discretisation
};
ClusterLattices cluster_lattices(std::uint64_t seed,
                                 std::size_t side = kClusterSide);

/// Text of the point formula of one lattice cell, with bounds printed so
/// they parse back to the same doubles.
std::string point_formula(double t, double r);

/// The CSL/CSRL suite of cluster_csl with seeded bounds (each within 2%
/// of its base value, so every seed costs about the same).
std::vector<std::string> csl_suite(std::uint64_t seed);

/// Rep times of one bench.  A rep is timed in process CPU time
/// (cpu_seconds()), so time the host spends on other work while the rep
/// waits does not count.  The reported value is the 90th percentile: on
/// the reference host rep times have a common plateau and stretches of
/// seconds in which the same rep runs up to 40% faster.  How much of a run
/// those stretches cover moves the median between the two modes, while
/// the 90th percentile stays on the plateau.
struct RepStats {
  std::vector<double> ms;  // one entry per timed rep
  double value_ms() const { return percentile(ms, kRepPercentile); }
  /// "p90 of N reps (CPU time), median m ms" for the report.
  std::string describe() const;
};

/// Timed `Checker::until_grid` reps of the three engines on one model:
/// Sericola and pseudo-Erlang on the main lattice, discretisation on the
/// coarse one.  Every rep uses a fresh checker; round() times one rep of
/// each engine, so all three sample the same stretch of the run.  Every
/// rep's grid must equal the warm-up's bitwise.
class LatticeBench {
 public:
  LatticeBench(const csrl::Mrm& model, ClusterLattices lattices);
  /// One untimed rep per engine; keeps the grids the checks compare.
  void warm_up(Tally& tally, Tracer* tracer);
  void round(Tally& tally, Tracer* tracer);
  /// Untimed output checks: one seeded cell per engine against
  /// Checker::check on its point formula (bitwise), and the approximate
  /// engines against Sericola on every state and cell.
  void check_outputs(std::uint64_t seed, Tally& tally) const;

  /// Sericola, pseudo-Erlang, discretisation.
  const std::vector<RepStats>& stats() const { return stats_; }

 private:
  struct Job {
    const csrl::BatchQuery* query;
    csrl::CheckOptions options;
  };
  void rep(std::size_t job, bool warm, Tally& tally, Tracer* tracer);

  const csrl::Mrm& model_;
  ClusterLattices lattices_;
  std::vector<Job> jobs_;
  std::vector<csrl::BatchResult> first_;
  std::vector<RepStats> stats_;
};

/// Timed reps of the CSL suite: a fresh checker (and no shared Sat cache)
/// per rep, every rep's values equal to the warm-up's bitwise.
class SuiteBench {
 public:
  SuiteBench(const csrl::Mrm& model, const std::vector<std::string>& texts,
             csrl::CheckOptions options);
  void warm_up(Tally& tally, Tracer* tracer);
  void rep(Tally& tally, Tracer* tracer);
  const RepStats& stats() const { return stats_; }

 private:
  std::vector<double> evaluate(Tracer* tracer) const;

  const csrl::Mrm& model_;
  std::vector<csrl::FormulaPtr> suite_;
  csrl::CheckOptions options_;
  std::vector<double> first_;
  RepStats stats_;
};

// ------------------------------------------------------------ service_mix

/// The five models of the mix: multiprocessor, tandem queue, cluster at
/// 8 per side, the paper's ad-hoc model and 15 independent machines.
using ModelList = std::vector<std::shared_ptr<const csrl::Mrm>>;
ModelList service_models();

csrl::service::ServiceOptions service_options();

struct MixQuery {
  std::size_t model = 0;  // index into service_models()
  std::string text;
};

/// About a hundred distinct queries: per model a coalescible P3 family
/// (one skeleton, seeded time/reward bounds, value and verdict forms)
/// beside direct S, P0, P1, P2, interval, reward and boolean queries.
std::vector<MixQuery> service_mix(std::uint64_t seed);

/// What a private Checker with the service's CheckOptions answers: the
/// service's contract (lattice-planned verdicts carry the probability).
struct Reference {
  double value = 0.0;
  bool truth = false;
};
std::vector<Reference> reference_answers(
    const ModelList& models, const std::vector<MixQuery>& mix,
    const csrl::CheckOptions& options);

/// Answers per chunk, so that each chunk's p99 has eleven samples beyond
/// it; a run needs at least three chunks.
constexpr std::size_t kLatencyChunk = 1100;
constexpr std::size_t kMinLatencySamples = 3 * kLatencyChunk;

// ------------------------------------------------------- shared passes

/// Set-up of the cluster workloads, repeated kSetupRepeats times: the
/// last model is kept, every repeat is timed.
struct ClusterSetup {
  csrl::Mrm model;
  std::vector<double> setup_s;
};
ClusterSetup cluster_setup();

/// Set-up of service_mix: models, service and registration (with
/// lumping), repeated kSetupRepeats times; the last service is kept.
/// The service's workers are then pinned to CPUs of their own
/// (pin_threads): left to the scheduler, the two workers at times shared
/// one CPU for many seconds, and the loop then served 2.5 times fewer
/// queries.  The calling thread (the generator, and every lattice and
/// suite rep) stays unpinned: pinned to one CPU, a run's reps all took
/// 1.85 times as long whenever the host slowed that CPU.
struct ServiceSetup {
  ModelList models;
  std::unique_ptr<csrl::service::CheckerService> service;
  std::vector<csrl::service::ModelId> ids;
  std::vector<double> setup_s;
};
ServiceSetup service_setup();

/// Thread ids of this process (/proc/self/task).
std::vector<int> thread_ids();

/// Pins each of `tids` to its own CPU, taken from the highest-numbered
/// CPUs the process may run on, and returns the CPUs used.  At least one
/// allowed CPU stays free of pinned threads.  Pins nothing and returns an
/// empty list when there are too few CPUs or the kernel refuses.
std::vector<int> pin_threads(const std::vector<int>& tids);

/// The closed loop over one service: one generator thread keeps
/// kInFlight queries outstanding, taking them from a seeded permutation of
/// the mix in a cycle, so every stretch of the stream carries the same
/// blend of query kinds.  It runs in segments; each keeps the loop full
/// for a given time, then drains it.  Latencies are taken on the benchmark's steady clock, from
/// just before submit() until the generator sees the answer, and only for
/// answers that arrive while the loop is full (the drain is not a steady
/// state).  Every answer is compared bitwise with a private checker's.
class LoopBench {
 public:
  /// Draws the mix from `seed` and computes the reference answers.
  LoopBench(ServiceSetup& setup, std::uint64_t seed);
  /// Every distinct query once, answers checked, not timed.
  void warm_up(Tally& tally);
  void segment(double seconds, Tally& tally, Tracer* tracer);

  const std::vector<MixQuery>& mix() const { return mix_; }
  /// Latencies (ms) in arrival order, full-loop answers only.
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  /// Answers per second of each segment while the loop was full.
  const std::vector<double>& segment_qps() const { return segment_qps_; }
  std::uint64_t ok() const { return ok_; }
  std::size_t max_in_flight() const { return max_in_flight_; }
  /// Service counters accumulated over the segments.
  const csrl::service::ServiceStats& service_stats() const { return service_; }

 private:
  ServiceSetup& setup_;
  std::vector<MixQuery> mix_;
  std::vector<Reference> refs_;
  std::vector<std::size_t> order_;  // seeded permutation of the mix
  std::size_t next_ = 0;             // position in order_, cycling
  std::vector<double> latency_ms_;
  std::vector<double> segment_qps_;
  std::uint64_t ok_ = 0;
  std::size_t max_in_flight_ = 0;
  csrl::service::ServiceStats service_;
};

/// served_qps (median segment throughput), query_p50_ms (over every
/// full-loop answer) and query_p99_ms (median p99 of consecutive chunks of
/// kLatencyChunk answers), with their sample counts.  Fails the run with
/// fewer than kMinLatencySamples answers.
void add_loop_metrics(const LoopBench& loop, const std::string& scope,
                      MetricList& metrics, Tally& tally);

/// Every run reports every end-to-end metric.  A workload measures its
/// own metrics at full size; the others come from two companion benches,
/// on the 16-per-side cluster (lattices, suite) or the service mix
/// (closed loop).  All three run interleaved in rounds of kRoundSeconds,
/// the workload's own bench taking kMainShare of each round and each
/// companion kCompanionShare, so a slow stretch of the host hits every
/// metric's reps alike instead of one metric's whole pass.
constexpr std::size_t kCompanionSide = 16;
constexpr double kRoundSeconds = 1.5;
constexpr double kMainShare = 0.7;
constexpr double kCompanionShare = 0.15;

// ------------------------------------------------------------ entry points

/// Runs the untraced workload and fills the end-to-end metrics.
void run_end_to_end(const RunArgs& args, MetricList& metrics, Tally& tally);

/// Runs the traced workload and fills the per-layer metrics.
void run_traced(const RunArgs& args, MetricList& metrics, Tally& tally);

}  // namespace perfbench
