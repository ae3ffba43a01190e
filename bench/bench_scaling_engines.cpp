// Scaling study: how the three Section-4 procedures behave as the state
// space grows — the observations of the paper's Section 5.4 ("General
// observations") made measurable:
//   * Sericola is fast and has the only a-priori error bound, but its
//     cost grows with N_eps^2 and the number of reward classes;
//   * the discretisation suffers from large time bounds and state spaces;
//   * pseudo-Erlang is cheap for small k but its chain is |S|*k states.
#include <cstdio>
#include <string>
#include <vector>

#include "core/engines/discretisation_engine.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "models/synthetic.hpp"

#include "bench_obs.hpp"

int main() {
  using namespace csrl;
  csrl_bench::BenchObs obs("scaling_engines");
  // One reps row per (engine, size); each table cell shows the row's
  // result and its median time.
  struct Cell {
    double value;
    double ms;
  };
  struct Row {
    std::size_t n;
    Cell cells[3];
  };
  std::vector<Row> rows;
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const Mrm model = birth_death_mrm(n, 2.0, 3.0);
    const double t = 4.0;
    const double r = 0.5 * model.max_reward() * t;
    StateSet target(n);
    target.insert(n - 1);
    const SericolaEngine sericola(1e-8);
    const ErlangEngine erlang(64);
    const DiscretisationEngine discretisation(1.0 / 64);

    const std::string size = std::to_string(n);
    const auto cell = [&](const char* engine, auto&& fn) {
      const double value = obs.timed_reps(engine + ("_n" + size), fn);
      return Cell{value, obs.reps().back().median_ms};
    };
    rows.push_back(
        {n,
         {cell("sericola",
               [&] {
                 return sericola.joint_probability_all_starts(model, t, r,
                                                              target)[0];
               }),
          cell("erlang",
               [&] {
                 return erlang.joint_probability_all_starts(model, t, r,
                                                            target)[0];
               }),
          cell("discretisation", [&] {
            return discretisation.joint_distribution(model, t, r)
                .probability_in(target);
          })}});
  }

  std::printf("=== Scaling: the three engines vs state-space size ===\n");
  std::printf("birth-death chains, t=4, r=0.5*max_reward*t\n");
  std::printf("%7s  %-22s  %-22s  %-22s\n", "states", "sericola(1e-8)",
              "erlang(k=64)", "discretisation(1/64)");
  for (const Row& row : rows) {
    std::printf("%7zu", row.n);
    for (const Cell& c : row.cells)
      std::printf("  %.6f %8.2f ms", c.value, c.ms);
    std::printf("\n");
  }
  std::printf("\n");
  return 0;
}
