#include "ctmc/stationary.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace csrl {

std::vector<double> component_stationary(const Ctmc& chain,
                                         std::span<const std::size_t> members,
                                         const SolverOptions& solver) {
  if (members.empty())
    throw ModelError("component_stationary: empty component");
  if (members.size() == 1) return {1.0};

  const Ctmc sub(chain.rates().principal_submatrix(members));
  double max_exit = 0.0;
  for (const std::size_t s : members) {
    double exit = 0.0;
    for (const auto& e : chain.rates().row(s)) {
      if (!std::binary_search(members.begin(), members.end(), e.col))
        throw ModelError("component_stationary: component is not closed");
      exit += e.value;
    }
    max_exit = std::max(max_exit, exit);
  }
  // Strictly above the max exit rate => the uniformised chain is aperiodic
  // and the power iteration converges.
  const double lambda = max_exit * 1.05 + 1e-3;
  return power_stationary(sub.uniformised_dtmc(lambda), solver);
}

}  // namespace csrl
