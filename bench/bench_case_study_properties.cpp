// Section 5.3 of the paper: properties Q1-Q3 checked end to end on the
// 9-state ad hoc station model (SRN -> reachability graph -> CSRL checker).
// Q1 exercises the P2 pipeline (duality), Q2 the P1 pipeline
// (uniformisation), Q3 the P3 pipeline (Theorem-1 reduction + engine).
// The printed time is the median of the query's timed reps.
#include <cstdio>

#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "models/adhoc.hpp"

#include "bench_obs.hpp"

int main() {
  using namespace csrl;
  csrl_bench::BenchObs obs("case_study_properties");
  const Mrm model = build_adhoc_mrm();
  struct Row {
    const char* name;
    const char* label;
    const char* query;
    const char* bounded;
    double value = 0.0;
    bool verdict = false;
    double ms = 0.0;
  };
  Row rows[] = {
      {"Q1 (reward-bounded eventually, P2)", "q1_reward_bounded", kQueryQ1,
       kPropertyQ1},
      {"Q2 (time-bounded eventually, P1)", "q2_time_bounded", kQueryQ2,
       kPropertyQ2},
      {"Q3 (time+reward until, P3)", "q3_time_reward_until", kQueryQ3,
       kPropertyQ3},
  };
  for (Row& row : rows) {
    const Checker checker(model);
    const FormulaPtr query = parse_formula(row.query);
    row.value = obs.timed_reps(row.label,
                               [&] { return checker.value_initially(*query); });
    row.ms = obs.reps().back().median_ms;
    row.verdict = checker.holds_initially(*parse_formula(row.bounded));
  }

  std::printf("=== Section 5.3: properties Q1-Q3 ===\n");
  for (const Row& row : rows)
    std::printf("%-36s  p = %.8f  %-13s (%.2f ms)\n", row.name, row.value,
                row.verdict ? "-> HOLDS" : "-> VIOLATED", row.ms);
  std::printf("\n");
  return 0;
}
