// Ablation (DESIGN.md): the Sericola engine's vector formulation vs the
// paper-faithful matrix-shaped computation.
//
// The recursion of [23, Thm 5.6] is stated over |S| x |S| matrices
// C(h,n,k); the paper reports O(N^2 |S|^3) time.  Our engine iterates the
// vectors C(h,n,k) * v for the fixed target indicator v, costing a factor
// |S| less.  joint_distribution() reconstructs the per-final-state answer
// by running the vector pass per basis vector — i.e. it *is* the
// matrix-cost variant — so timing both quantifies what the reformulation
// buys at different model sizes.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engines/sericola_engine.hpp"
#include "models/synthetic.hpp"

#include "bench_obs.hpp"

int main() {
  using namespace csrl;
  csrl_bench::BenchObs obs("ablation_sericola");
  struct Row {
    std::size_t n;
    double vector_ms;
    double matrix_ms;
    double diff;
  };
  std::vector<Row> rows;
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const Mrm model = birth_death_mrm(n, 2.0, 3.0);
    const double t = 4.0;
    const double r = 0.4 * model.max_reward() * t;
    StateSet target(n);
    target.insert(n - 1);
    const SericolaEngine engine(1e-8);

    const std::string size = std::to_string(n);
    const auto by_vector = obs.timed_reps("sericola_vector_n" + size, [&] {
      return engine.joint_probability_all_starts(model, t, r, target);
    });
    const double vector_ms = obs.reps().back().median_ms;
    const auto by_matrix = obs.timed_reps("sericola_matrix_cost_n" + size, [&] {
      return engine.joint_distribution(model, t, r);
    });
    rows.push_back({n, vector_ms, obs.reps().back().median_ms,
                    std::abs(by_matrix.per_state[n - 1] - by_vector[0])});
  }

  std::printf("=== Ablation: Sericola vector pass vs matrix-cost pass ===\n");
  std::printf("birth-death chains, t=4, r=0.4*max_reward*t, eps=1e-8\n");
  std::printf("%7s  %12s  %12s  %8s\n", "states", "vector", "matrix-cost",
              "speedup");
  for (const Row& row : rows)
    std::printf("%7zu  %9.2f ms  %9.2f ms  %7.1fx   |diff| = %.2e\n", row.n,
                row.vector_ms, row.matrix_ms, row.matrix_ms / row.vector_ms,
                row.diff);
  std::printf("\n");
  return 0;
}
