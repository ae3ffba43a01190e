// Ablation (DESIGN.md): iterative-solver choice for the embedded linear
// systems (unbounded until, property class P0) — Jacobi vs Gauss-Seidel vs
// SOR — and the effect of the Fox-Glynn-style Poisson window vs a naive
// fixed-length series, and of steady-state detection, on transient
// analysis.  Every row must exercise the mechanism it is about: the bench
// exits 1 when a solver row records no solver iteration or the detection
// row records no steady-state cutoff (builds with observability compiled
// out cannot count, and skip the check).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "ctmc/foxglynn.hpp"
#include "ctmc/uniformisation.hpp"
#include "logic/parser.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

Mrm workload(std::size_t side) {
  // Tandem queue: the forward bias makes Gauss-Seidel ordering matter.
  return tandem_queue_mrm(side, side, 1.0, 1.5, 1.2);
}

/// How often `counter` ticks during one call of `fn`.
template <typename Fn>
std::uint64_t count_during(const char* counter, Fn&& fn) {
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  fn();
  return obs::metrics_delta(before, obs::snapshot_metrics()).counter(counter);
}

/// Report a row whose mechanism did not run; returns false for the exit
/// code.
bool mechanism_ran(std::uint64_t count, const std::string& row,
                   const char* counter) {
#ifdef CSRL_OBS_DISABLED
  (void)count, (void)row, (void)counter;
  return true;
#else
  if (count > 0) return true;
  std::fprintf(stderr, "bench_ablation_solvers: row %s recorded %s == 0\n",
               row.c_str(), counter);
  return false;
#endif
}

bool run_solvers(csrl_bench::BenchObs& obs) {
  // Draining before stage 2 fills: every state off "empty" and "full2"
  // is a maybe-state, so graph precomputation leaves the whole system to
  // the solver.
  const FormulaPtr formula = parse_formula("P=? [ !full2 U empty ]");
  struct Method {
    LinearMethod method;
    const char* label;
  };
  const Method methods[] = {{LinearMethod::kJacobi, "jacobi"},
                            {LinearMethod::kGaussSeidel, "gauss_seidel"},
                            {LinearMethod::kSor, "sor"}};
  struct Cell {
    double ms;
    std::uint64_t iterations;
  };
  struct Row {
    std::size_t states;
    std::vector<Cell> cells;
  };
  bool ok = true;
  std::vector<Row> rows;
  for (std::size_t side : {8u, 16u, 32u, 48u}) {
    const Mrm model = workload(side);
    Row row{model.num_states(), {}};
    for (const Method& m : methods) {
      CheckOptions options;
      options.solver.method = m.method;
      options.solver.omega = 1.2;
      const Checker checker(model, options);
      const std::string label =
          "p0_" + std::string(m.label) + "_side" + std::to_string(side);
      obs.timed_reps(label, [&] { return checker.values(*formula); });
      const std::uint64_t iterations = count_during(
          "solver/iterations", [&] { (void)checker.values(*formula); });
      ok = mechanism_ran(iterations, label, "solver/iterations") && ok;
      row.cells.push_back({obs.reps().back().median_ms, iterations});
    }
    rows.push_back(std::move(row));
  }

  std::printf("=== Ablation: linear solvers for unbounded until (P0) ===\n");
  std::printf("P=? [ !full2 U empty ] on the tandem queue; time (iterations)\n");
  std::printf("%9s  %18s  %18s  %18s\n", "states", "jacobi", "gauss-seidel",
              "sor(1.2)");
  for (const Row& row : rows) {
    std::printf("%9zu", row.states);
    for (const Cell& cell : row.cells)
      std::printf("  %7.2f ms (%6llu)", cell.ms,
                  static_cast<unsigned long long>(cell.iterations));
    std::printf("\n");
  }
  std::printf("\n");
  return ok;
}

void run_poisson_windows(csrl_bench::BenchObs& obs) {
  // Poisson-window ablation: the adaptive Fox-Glynn window vs the terms
  // a series always starting at n = 0 would sum (right + 1).
  struct Row {
    double lt;
    std::size_t window;
    std::size_t from_zero;
    double ms;
  };
  std::vector<Row> rows;
  for (int lt : {100, 1000, 10000}) {
    const PoissonWeights w =
        obs.timed_reps("poisson_window_lt" + std::to_string(lt),
                       [lt] { return poisson_weights(lt, 1e-10); });
    rows.push_back({static_cast<double>(lt), w.right - w.left + 1,
                    w.right + 1, obs.reps().back().median_ms});
  }
  std::printf("=== Ablation: adaptive Poisson window (eps 1e-10) ===\n");
  std::printf("%9s  %8s  %9s  %10s\n", "lambda*t", "window", "from n=0",
              "time");
  for (const Row& row : rows)
    std::printf("%9.0f  %8zu  %9zu  %7.4f ms\n", row.lt, row.window,
                row.from_zero, row.ms);
  std::printf("\n");
}

bool run_steady_state_detection(csrl_bench::BenchObs& obs) {
  // Steady-state detection makes long horizons cheap; toggling it off
  // shows the cost of the full series.  At t = 5000 the Fox-Glynn window
  // runs to ~19,000 steps, and the iterate settles near step 4,100.
  const double horizon = 5000.0;
  const Mrm model = workload(16);
  StateSet target(model.num_states());
  target.insert(0);
  struct Row {
    const char* label;
    double value;
    double ms;
    std::uint64_t steps;
  };
  bool ok = true;
  std::vector<Row> rows;
  for (const bool detect : {false, true}) {
    TransientOptions options;
    options.steady_state_detection = detect;
    const char* label = detect ? "on" : "off";
    const auto run = [&] {
      return transient_reach(model.chain(), target, horizon, options)[0];
    };
    const std::string name = std::string("transient_t5000_steady_") + label;
    const double value = obs.timed_reps(name, run);
    const double ms = obs.reps().back().median_ms;
    const std::uint64_t steps =
        count_during("uniformisation/steps", [&] { (void)run(); });
    if (detect)
      ok = mechanism_ran(count_during("uniformisation/steady_state_cutoffs",
                                      [&] { (void)run(); }),
                         name, "uniformisation/steady_state_cutoffs") &&
           ok;
    rows.push_back({label, value, ms, steps});
  }
  std::printf("=== Ablation: steady-state detection, horizon t=5000 ===\n");
  for (const Row& row : rows)
    std::printf("detection %-3s  p = %.8f  %8.2f ms  %6llu steps\n", row.label,
                row.value, row.ms, static_cast<unsigned long long>(row.steps));
  std::printf("\n");
  return ok;
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs("ablation_solvers");
  bool ok = run_solvers(obs);
  run_poisson_windows(obs);
  ok = run_steady_state_detection(obs) && ok;
  return ok ? 0 : 1;
}
