#include "core/reward_ops.hpp"

#include "matrix/vector_ops.hpp"

namespace csrl {

double expected_instantaneous_reward(const Mrm& model, double t,
                                     const TransientOptions& options) {
  const std::vector<double> pi =
      transient_distribution(model.chain(), model.initial_distribution(), t,
                             options);
  return dot(pi, model.rewards());
}

std::vector<double> effective_reward_rates(const Mrm& model) {
  std::vector<double> rates = model.rewards();
  if (model.has_impulse_rewards()) {
    for (std::size_t s = 0; s < model.num_states(); ++s)
      for (const auto& e : model.impulse_rewards().row(s))
        rates[s] += model.rates().at(s, e.col) * e.value;
  }
  return rates;
}

std::vector<double> expected_instantaneous_reward_all_starts(
    const Mrm& model, double t, const TransientOptions& options) {
  return transient_backward(model.chain(), model.rewards(), t, options);
}

std::vector<double> expected_accumulated_reward_all_starts(
    const Mrm& model, double t, const TransientOptions& options) {
  return transient_backward_cumulative(model.chain(),
                                       effective_reward_rates(model), t,
                                       options);
}

double expected_accumulated_reward(const Mrm& model, double t,
                                   const TransientOptions& options) {
  return dot(model.initial_distribution(),
             expected_accumulated_reward_all_starts(model, t, options));
}

}  // namespace csrl
