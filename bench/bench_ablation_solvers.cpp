// Ablation (DESIGN.md): iterative-solver choice for the embedded linear
// systems (unbounded until, property class P0) — Jacobi vs Gauss-Seidel vs
// SOR — and the effect of the Fox-Glynn-style Poisson window vs a naive
// fixed-length series on transient analysis.
#include <cstdio>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "ctmc/foxglynn.hpp"
#include "ctmc/uniformisation.hpp"
#include "logic/parser.hpp"
#include "models/synthetic.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

Mrm workload(std::size_t side) {
  // Tandem queue: the forward bias makes Gauss-Seidel ordering matter.
  return tandem_queue_mrm(side, side, 1.0, 1.5, 1.2);
}

void run_solvers(csrl_bench::BenchObs& obs) {
  const FormulaPtr formula = parse_formula("P=? [ !full2 U blocked ]");
  struct Method {
    LinearMethod method;
    const char* label;
  };
  const Method methods[] = {{LinearMethod::kJacobi, "jacobi"},
                            {LinearMethod::kGaussSeidel, "gauss_seidel"},
                            {LinearMethod::kSor, "sor"}};
  struct Row {
    std::size_t states;
    std::vector<double> ms;
  };
  std::vector<Row> rows;
  for (std::size_t side : {8u, 16u, 32u, 48u}) {
    const Mrm model = workload(side);
    Row row{model.num_states(), {}};
    for (const Method& m : methods) {
      CheckOptions options;
      options.solver.method = m.method;
      options.solver.omega = 1.2;
      const Checker checker(model, options);
      obs.timed_reps("p0_" + std::string(m.label) + "_side" +
                         std::to_string(side),
                     [&] { return checker.value_initially(*formula); });
      row.ms.push_back(obs.reps().back().median_ms);
    }
    rows.push_back(std::move(row));
  }

  std::printf("=== Ablation: linear solvers for unbounded until (P0) ===\n");
  std::printf("%9s  %10s  %12s  %10s\n", "states", "jacobi", "gauss-seidel",
              "sor(1.2)");
  for (const Row& row : rows) {
    std::printf("%9zu", row.states);
    for (double ms : row.ms) std::printf("  %7.2f ms", ms);
    std::printf("\n");
  }
  std::printf("\n");
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

void run_steady_state_detection(csrl_bench::BenchObs& obs) {
  // Steady-state detection makes long horizons cheap; toggling it off
  // shows the cost of the full series.
  const Mrm model = workload(16);
  StateSet target(model.num_states());
  target.insert(0);
  struct Row {
    const char* label;
    double value;
    double ms;
  };
  std::vector<Row> rows;
  for (const bool detect : {false, true}) {
    TransientOptions options;
    options.steady_state_detection = detect;
    const char* label = detect ? "on" : "off";
    const double value = obs.timed_reps(
        std::string("transient_t500_steady_") + label, [&] {
          return transient_reach(model.chain(), target, 500.0, options)[0];
        });
    rows.push_back({label, value, obs.reps().back().median_ms});
  }
  std::printf("=== Ablation: steady-state detection, horizon t=500 ===\n");
  for (const Row& row : rows)
    std::printf("detection %-3s  p = %.8f  %8.2f ms\n", row.label, row.value,
                row.ms);
  std::printf("\n");
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs("ablation_solvers");
  run_solvers(obs);
  run_poisson_windows(obs);
  run_steady_state_detection(obs);
  return 0;
}
