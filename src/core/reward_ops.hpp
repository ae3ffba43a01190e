// Expected-reward utilities on MRMs.
//
// Not part of CSRL's boolean fragment, but the natural quantitative
// companions: the expected instantaneous reward rate E[rho(X_t)] and the
// expected accumulated reward E[Y_t].  Both run on the shared
// uniformisation series loop; E_s[Y_t] runs it backward on tail windows,
//
//   E_s[Y_t] = (1/lambda) * sum_{n>=0} Pr{N(lambda t) > n} * (P^n rho~)(s),
//
// rho~ the effective reward rates, within rho_max t epsilon plus the
// steady-state cutoff term stated at transient_backward_cumulative.
#pragma once

#include "ctmc/uniformisation.hpp"
#include "mrm/mrm.hpp"

namespace csrl {

/// E[rho(X_t)] from the model's initial distribution.
double expected_instantaneous_reward(const Mrm& model, double t,
                                     const TransientOptions& options = {});

/// E[Y_t], the expected reward accumulated over [0, t], from the model's
/// initial distribution: dot(initial, expected_accumulated_reward_all_starts).
double expected_accumulated_reward(const Mrm& model, double t,
                                   const TransientOptions& options = {});

/// The effective per-state reward rate rho(s) + sum_{s'} R(s,s') iota(s,s'):
/// impulse rewards contribute to expectations exactly like an extra rate
/// reward equal to their arrival intensity, which lets every expectation
/// routine below treat both kinds uniformly.
std::vector<double> effective_reward_rates(const Mrm& model);

/// E_s[rho(X_t)] for every start state s (one backward uniformisation).
std::vector<double> expected_instantaneous_reward_all_starts(
    const Mrm& model, double t, const TransientOptions& options = {});

/// E_s[Y_t] for every start state s (one backward tail-window series);
/// includes impulse contributions.
std::vector<double> expected_accumulated_reward_all_starts(
    const Mrm& model, double t, const TransientOptions& options = {});

}  // namespace csrl
