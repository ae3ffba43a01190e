// Table 2 of the paper: the occupation-time-distribution algorithm
// (Sericola) on the Q3 reduced model, sweeping the a-priori error bound
// epsilon from 1e-1 to 1e-8.  Reported per row: the truncation depth
// N_eps, the computed path probability, and the wall-clock time (median
// of the row's timed reps).
//
// Paper reference rows (Pentium III, 1 GHz):
//   eps    N    value        time
//   1e-1   496  0.44831203    76.27 s
//   1e-8   594  0.49540399   110.78 s
//
// Shape expectations: N grows logarithmically-slowly in 1/eps, the value
// converges monotonically from below, time grows mildly with N.  Absolute
// values sit ~0.3% above the paper's (see EXPERIMENTS.md).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/engines/sericola_engine.hpp"
#include "models/adhoc.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

struct Point {
  double value = 0.0;
  std::size_t steps = 0;
};

Point run_once(double epsilon) {
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(epsilon);
  StateSet success(reduced.num_states());
  success.insert(3);
  Point point;
  point.steps = engine.truncation_depth(reduced, kTimeBoundHours);
  point.value = engine.joint_probability_all_starts(
      reduced, kTimeBoundHours, kRewardBoundMah, success)[reduced.initial_state()];
  return point;
}

void run_table(csrl_bench::BenchObs& obs) {
  struct Row {
    double eps;
    Point point;
    double ms;
  };
  const double epsilons[] = {1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8};
  std::vector<Row> rows;
  for (std::size_t i = 0; i < std::size(epsilons); ++i) {
    const double eps = epsilons[i];
    const Point point =
        obs.timed_reps("sericola_q3_eps1e-" + std::to_string(i + 1),
                       [eps] { return run_once(eps); });
    rows.push_back({eps, point, obs.reps().back().median_ms});
  }

  std::printf("=== Table 2: occupation time distributions (Sericola) ===\n");
  std::printf("Q3 on the reduced 5-state MRM, t=%.0f h, r=%.0f mAh\n",
              kTimeBoundHours, kRewardBoundMah);
  std::printf("%-8s %6s  %-14s %10s\n", "eps", "N", "value", "time");
  for (const Row& row : rows)
    std::printf("%-8.0e %6zu  %.8f %9.2f ms\n", row.eps, row.point.steps,
                row.point.value, row.ms);
  std::printf("paper's converged value: %.8f (see EXPERIMENTS.md)\n\n",
              kPaperQ3Reference);
}

void run_grid_comparison(csrl_bench::BenchObs& obs) {
  // The batched-lattice path (core/batch.hpp): the Table-2 property swept
  // over a bound lattice in one occupation-time pass, against the
  // point-by-point loop it replaces.
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(1e-8);
  StateSet success(reduced.num_states());
  success.insert(3);
  const std::vector<double> times{4.0, 8.0, 16.0, kTimeBoundHours};
  const std::vector<double> rewards{150.0, 300.0, 450.0, kRewardBoundMah};

  const auto batched = obs.timed_reps("sericola_grid_4x4_batched", [&] {
    return engine.joint_probability_all_starts_grid(reduced, times, rewards,
                                                    success);
  });
  const double batched_ms = obs.reps().back().median_ms;
  const auto looped = obs.timed_reps("sericola_grid_4x4_looped", [&] {
    return joint_grid_reference(engine, reduced, times, rewards, success);
  });
  const double looped_ms = obs.reps().back().median_ms;

  bool bitwise = batched.size() == looped.size();
  for (std::size_t g = 0; bitwise && g < batched.size(); ++g)
    bitwise = batched[g].size() == looped[g].size() &&
              std::memcmp(batched[g].data(), looped[g].data(),
                          batched[g].size() * sizeof(double)) == 0;
  std::printf("batched %zux%zu lattice: %.2f ms vs %.2f ms point-by-point "
              "(%.1fx), bitwise identical: %s\n\n",
              times.size(), rewards.size(), batched_ms, looped_ms,
              batched_ms > 0.0 ? looped_ms / batched_ms : 0.0,
              bitwise ? "yes" : "NO");
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs("table2_sericola");
  run_table(obs);
  run_grid_comparison(obs);
  return 0;
}
