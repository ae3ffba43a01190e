#include "mrm/diagnostics.hpp"

#include <sstream>

#include "ctmc/graph.hpp"

namespace csrl {

ModelDiagnostics diagnose(const Mrm& model) {
  const std::size_t n = model.num_states();
  ModelDiagnostics d;
  d.num_states = n;
  d.num_transitions = model.rates().nnz();
  d.unreachable = StateSet(n);
  d.deadlocks = StateSet(n);
  if (n == 0) return d;

  StateSet initial_support(n);
  for (std::size_t s = 0; s < n; ++s)
    if (model.initial_distribution()[s] > 0.0) initial_support.insert(s);
  d.unreachable = forward_reachable(model.rates(), initial_support).complement();

  double min_positive = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    const double exit = model.chain().exit_rate(s);
    if (exit == 0.0) {
      d.deadlocks.insert(s);
    } else if (min_positive == 0.0 || exit < min_positive) {
      min_positive = exit;
    }
    if (model.reward(s) == 0.0) ++d.zero_reward_states;
  }
  d.max_exit_rate = model.chain().max_exit_rate();
  d.min_positive_exit_rate = min_positive;
  d.stiffness = min_positive > 0.0 ? d.max_exit_rate / min_positive : 0.0;

  const std::vector<StateSet> bsccs = bottom_sccs(model.rates());
  d.num_bsccs = bsccs.size();
  d.irreducible = d.num_bsccs == 1 && d.unreachable.empty() &&
                  bsccs.front().count() == n;

  d.max_reward = model.max_reward();
  d.has_impulse_rewards = model.has_impulse_rewards();
  return d;
}

std::string ModelDiagnostics::summary() const {
  std::ostringstream out;
  out << "states: " << num_states << ", transitions: " << num_transitions
      << "\n";
  out << "reachability: "
      << (unreachable.empty()
              ? std::string("all states reachable")
              : std::to_string(unreachable.count()) +
                    " unreachable state(s) " + unreachable.to_string())
      << "\n";
  out << "absorbing states: "
      << (deadlocks.empty() ? std::string("none") : deadlocks.to_string())
      << "\n";
  out << "bottom SCCs: " << num_bsccs
      << (irreducible ? " (irreducible chain)" : "") << "\n";
  out << "exit rates: max " << max_exit_rate << ", min positive "
      << min_positive_exit_rate << " (stiffness " << stiffness << ")\n";
  out << "rewards: max rate " << max_reward << ", " << zero_reward_states
      << " zero-reward state(s)"
      << (has_impulse_rewards ? ", impulse rewards present" : "") << "\n";
  return out.str();
}

}  // namespace csrl
