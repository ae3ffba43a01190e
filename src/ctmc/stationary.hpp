// Stationary distributions of closed CTMC components.
//
// Shared by the steady-state operator (S ~p) and the long-run reward
// operator (R ~r [ S ]): both weigh per-BSCC stationary vectors by
// absorption probabilities.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "matrix/solvers.hpp"

namespace csrl {

/// Stationary distribution of the CTMC restricted to the closed component
/// with the given member states (strictly ascending, as
/// StateSet::members() lists them), indexed like `members`.  The component
/// must be closed (no rate leaves it) and strongly connected; a singleton
/// trivially yields {1}.
std::vector<double> component_stationary(const Ctmc& chain,
                                         std::span<const std::size_t> members,
                                         const SolverOptions& solver = {});

}  // namespace csrl
