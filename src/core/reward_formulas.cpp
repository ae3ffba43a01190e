// The expected-reward operator R (an implemented extension; the measures
// follow the conventions later probabilistic model checkers established).
#include <limits>

#include "core/checker.hpp"
#include "core/reward_ops.hpp"
#include "ctmc/graph.hpp"
#include "util/error.hpp"

namespace csrl {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Expected reward accumulated until first hitting `target`, for every
/// start state; +infinity where the hit is not almost sure.  Costs are
/// per-visit expectations on the embedded DTMC:
///   cost(s) = rho(s)/E(s) + sum_{s'} P(s,s') iota(s,s')
/// (the second term is exactly (effective - rho)/E).
std::vector<double> reachability_reward(const Mrm& model,
                                        const StateSet& target,
                                        const SolverOptions& solver) {
  const std::size_t n = model.num_states();
  std::vector<double> result(n, 0.0);
  if (target.count() == n) return result;

  // Qualitative analysis of F target: the prob-1 states of true U target.
  const StateSet sure =
      qualitative_until(model.rates(), StateSet(n, /*filled=*/true), target)
          .one;
  for (std::size_t s : sure.complement().members()) result[s] = kInf;

  // Solve on the sure-but-not-yet-there states.  Prob-1-ness is closed
  // under successors outside the target, so the system never touches an
  // infinite value.
  const std::vector<std::size_t> order = (sure - target).members();
  if (order.empty()) return result;

  const std::vector<double> effective = effective_reward_rates(model);
  // exit > 0 is guaranteed: an absorbing non-target state cannot be
  // "sure" to reach the target.
  std::vector<double> b(order.size(), 0.0);
  for (std::size_t i = 0; i < order.size(); ++i)
    b[i] = effective[order[i]] / model.chain().exit_rate(order[i]);
  const std::vector<double> x = solve_fixpoint(
      model.chain().embedded_dtmc().principal_submatrix(order), b, solver);
  for (std::size_t i = 0; i < order.size(); ++i) result[order[i]] = x[i];
  return result;
}

}  // namespace

std::vector<double> Checker::reward_values_internal(const Formula& f) const {
  if (f.kind() != FormulaKind::kReward)
    throw ModelError("reward_values: not a reward formula");

  switch (f.reward_query_kind()) {
    case RewardQuery::kCumulative:
      return expected_accumulated_reward_all_starts(
          *model_, f.reward_parameter(), options_.transient);
    case RewardQuery::kInstantaneous:
      return expected_instantaneous_reward_all_starts(
          *model_, f.reward_parameter(), options_.transient);
    case RewardQuery::kReachability:
      return reachability_reward(*model_, sat_internal(*f.reward_target()),
                                 options_.solver);
    case RewardQuery::kSteadyState:
      // Long-run reward rate: the stationary average of the effective
      // reward, mixed over the BSCCs (steady.cpp).
      return long_run_average(effective_reward_rates(*model_));
  }
  throw Error("reward_values: invalid reward query");
}

}  // namespace csrl
