// Steady-state operator (following [2]; the paper omits it from its
// exposition but the logic and our checker support it).
//
// For each start state s the long-run average of a per-state value v is
//
//   sum_B  Pr{reach BSCC B from s} * (pi_B . v),
//
// where pi_B is the stationary distribution of the chain restricted to
// the bottom strongly connected component B.  With v the indicator of
// Phi this is the long-run probability of sitting in Phi (S ~p); with v
// the effective reward rate it is the long-run reward rate (R ~r [ S ]).
#include "core/checker.hpp"
#include "ctmc/graph.hpp"
#include "ctmc/stationary.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace csrl {

std::vector<double> Checker::long_run_average(
    std::span<const double> values) const {
  CSRL_SPAN("core/steady/bscc");
  const std::size_t n = model_->num_states();
  const StateSet everything(n, /*filled=*/true);
  std::vector<double> result(n, 0.0);
  for (const StateSet& bscc : bottom_sccs(model_->rates())) {
    const std::vector<std::size_t> members = bscc.members();
    const std::vector<double> pi =
        component_stationary(model_->chain(), members, options_.solver);

    // pi[i] * 1.0 and + (pi[i] * 0.0) are exact, so an indicator `values`
    // sums the Phi-mass bit for bit like a filtered sum.
    double weight = 0.0;
    for (std::size_t i = 0; i < members.size(); ++i)
      weight += pi[i] * values[members[i]];
    if (weight == 0.0) continue;

    // Pr{eventually absorbed in this BSCC}, for every start state.
    const std::vector<double> reach = unbounded_until(everything, bscc);
    for (std::size_t s = 0; s < n; ++s) result[s] += reach[s] * weight;
  }
  return result;
}

std::vector<double> Checker::steady_probabilities_internal(
    const StateSet& phi_states) const {
  if (phi_states.size() != model_->num_states())
    throw ModelError("steady_probabilities: universe size mismatch");
  return long_run_average(phi_states.indicator());
}

}  // namespace csrl
