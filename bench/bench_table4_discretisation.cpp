// Table 4 of the paper: the Tijms-Veldman discretisation on the Q3
// reduced model, halving the step size d row by row.  Reported: the
// probability, the relative error against the high-precision Sericola
// value, and the wall-clock time (median of the row's timed reps).
//
// Paper reference rows (1 GHz Pentium III; its d column is garbled in the
// available scan, but the 4x time growth per row pins consecutive
// halvings, and E(s) d < 1 forces d <= 1/32 for this model):
//   0.49566676  0.05%    26.71 s
//   0.49553603  0.03%   107.62 s
//   0.49547017  0.01%   431.93 s
//   0.49543712 <0.01%  1712.00 s
//
// Shape expectations: error shrinks linearly in d, time grows ~ 1/d^2.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engines/discretisation_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "models/adhoc.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

double discretisation_once(double d) {
  const Mrm reduced = build_q3_reduced_mrm();
  const DiscretisationEngine engine(d);
  return engine.joint_distribution(reduced, kTimeBoundHours, kRewardBoundMah)
      .per_state[3];
}

double sericola_reference() {
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(1e-10);
  StateSet success(reduced.num_states());
  success.insert(3);
  return engine.joint_probability_all_starts(
      reduced, kTimeBoundHours, kRewardBoundMah, success)[reduced.initial_state()];
}

void run_table(csrl_bench::BenchObs& obs) {
  struct Row {
    int denom;
    double value;
    double ms;
  };
  std::vector<Row> rows;
  for (int denom : {32, 64, 128, 256}) {
    const double value =
        obs.timed_reps("discretisation_q3_d1_" + std::to_string(denom),
                       [denom] { return discretisation_once(1.0 / denom); });
    rows.push_back({denom, value, obs.reps().back().median_ms});
  }

  const double reference = sericola_reference();
  std::printf("=== Table 4: Tijms-Veldman discretisation ===\n");
  std::printf("Q3 on the reduced 5-state MRM; reference (Sericola 1e-10): "
              "%.8f\n", reference);
  std::printf("%8s  %-14s %-10s %10s\n", "d", "value", "rel.err", "time");
  for (const Row& row : rows)
    std::printf("   1/%-4d  %.8f %7.3f%% %9.2f ms\n", row.denom, row.value,
                100.0 * std::abs(row.value - reference) / reference, row.ms);
  std::printf("\n");
}

void run_grid_comparison(csrl_bench::BenchObs& obs) {
  // The batched-lattice path (core/batch.hpp): one F-grid sweep to
  // (t_max, r_max) harvests every smaller Table-4 bound on the way,
  // against the point-by-point loop it replaces.
  const Mrm reduced = build_q3_reduced_mrm();
  const double d = 1.0 / 64.0;
  const DiscretisationEngine engine(d);
  const std::vector<double> times{6.0, 12.0, kTimeBoundHours};
  const std::vector<double> rewards{150.0, 300.0, kRewardBoundMah};

  const auto batched = obs.timed_reps("discretisation_grid_3x3_batched", [&] {
    return engine.joint_distribution_grid(reduced, times, rewards);
  });
  const double batched_ms = obs.reps().back().median_ms;
  const auto looped = obs.timed_reps("discretisation_grid_3x3_looped", [&] {
    return joint_distribution_grid_reference(engine, reduced, times, rewards);
  });
  const double looped_ms = obs.reps().back().median_ms;

  bool bitwise = batched.size() == looped.size();
  for (std::size_t g = 0; bitwise && g < batched.size(); ++g)
    bitwise = batched[g].per_state == looped[g].per_state;
  std::printf("batched %zux%zu lattice at d=1/64: %.2f ms vs %.2f ms "
              "point-by-point (%.1fx), bitwise identical: %s\n\n",
              times.size(), rewards.size(), batched_ms, looped_ms,
              batched_ms > 0.0 ? looped_ms / batched_ms : 0.0,
              bitwise ? "yes" : "NO");
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs("table4_discretisation");
  run_table(obs);
  run_grid_comparison(obs);
  return 0;
}
