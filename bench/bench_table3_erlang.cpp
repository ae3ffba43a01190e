// Table 3 of the paper: the pseudo-Erlang approximation on the Q3 reduced
// model, sweeping the number of phases k = 1 ... 1024.  Reported per row:
// the probability, its relative error against the high-precision Sericola
// value, and the wall-clock time (median of the row's timed reps).
//
// Paper reference rows (SPNP v6 on a 1 GHz Pentium III):
//   k=1    0.41067310  17.10%   < 0.01 s
//   k=256  0.49520304   0.04%     0.50 s
//   k=1024 0.49535410   0.01%    21.34 s
//
// Shape expectations: the estimate approaches the reference from below
// with error ~ 1/k; time grows superlinearly in k (the uniformisation
// rate grows by k*rho_max/r and the chain by a factor k).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "models/adhoc.hpp"

#include "bench_obs.hpp"

namespace {

using namespace csrl;

double erlang_once(std::size_t k) {
  const Mrm reduced = build_q3_reduced_mrm();
  const ErlangEngine engine(k);
  StateSet success(reduced.num_states());
  success.insert(3);
  return engine.joint_probability_all_starts(
      reduced, kTimeBoundHours, kRewardBoundMah, success)[reduced.initial_state()];
}

double sericola_reference() {
  const Mrm reduced = build_q3_reduced_mrm();
  const SericolaEngine engine(1e-10);
  StateSet success(reduced.num_states());
  success.insert(3);
  return engine.joint_probability_all_starts(
      reduced, kTimeBoundHours, kRewardBoundMah, success)[reduced.initial_state()];
}

}  // namespace

int main() {
  csrl_bench::BenchObs obs("table3_erlang");
  struct Row {
    std::size_t k;
    double value;
    double ms;
  };
  std::vector<Row> rows;
  for (std::size_t k = 1; k <= 1024; k *= 2) {
    const double value = obs.timed_reps("erlang_q3_k" + std::to_string(k),
                                        [k] { return erlang_once(k); });
    rows.push_back({k, value, obs.reps().back().median_ms});
  }

  const double reference = sericola_reference();
  std::printf("=== Table 3: pseudo-Erlang approximation ===\n");
  std::printf("Q3 on the reduced 5-state MRM; reference (Sericola 1e-10): "
              "%.8f\n", reference);
  std::printf("%6s  %-14s %-10s %10s\n", "k", "value", "rel.err", "time");
  for (const Row& row : rows)
    std::printf("%6zu  %.8f %7.2f%% %9.2f ms\n", row.k, row.value,
                100.0 * std::abs(row.value - reference) / reference, row.ms);
  std::printf("\n");
  return 0;
}
