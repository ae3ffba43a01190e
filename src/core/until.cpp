// Implementation of the four until property classes (P0-P3).
#include <cmath>

#include "core/checker.hpp"
#include "ctmc/graph.hpp"
#include "ctmc/uniformisation.hpp"
#include "mrm/transform.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace csrl {

std::vector<double> Checker::unbounded_until(const StateSet& phi,
                                             const StateSet& psi) const {
  CSRL_SPAN("core/until/p0");
  const std::size_t n = model_->num_states();
  const UntilPrecomputation pre = qualitative_until(model_->rates(), phi, psi);

  std::vector<double> result(n, 0.0);
  for (std::size_t s : pre.one.members()) result[s] = 1.0;

  const StateSet maybe = (pre.zero | pre.one).complement();
  const std::vector<std::size_t> maybe_states = maybe.members();
  if (maybe_states.empty()) return result;

  const CsrMatrix p = model_->chain().embedded_dtmc();
  // x = A x + b on the maybe states, with A the embedded DTMC restricted
  // to maybe x maybe and b the one-step probability into the prob-1 set.
  std::vector<double> b(maybe_states.size(), 0.0);
  for (std::size_t i = 0; i < maybe_states.size(); ++i)
    for (const auto& e : p.row(maybe_states[i]))
      if (pre.one.contains(e.col)) b[i] += e.value;

  const std::vector<double> x = solve_fixpoint(
      p.principal_submatrix(maybe_states), b, options_.solver);
  for (std::size_t i = 0; i < maybe_states.size(); ++i)
    result[maybe_states[i]] = x[i];
  return result;
}

std::vector<double> Checker::time_bounded_until(const StateSet& phi,
                                                const StateSet& psi,
                                                Interval time) const {
  CSRL_SPAN("core/until/p1");
  // I = [0, t]: make Psi and the illegal states absorbing, then transient
  // analysis at t decides the formula ([3]; the paper's P1 recipe).
  if (time.lo == 0.0) {
    if (!time.has_upper_bound())
      return unbounded_until(phi, psi);
    const Mrm frozen =
        make_absorbing(*model_, (phi - psi).complement(), /*zero_reward=*/false);
    std::vector<double> result =
        transient_reach(frozen.chain(), psi, time.hi, options_.transient);
    // Psi-states satisfy the until immediately and are absorbing in the
    // frozen chain: pin them to exactly 1 rather than 1 - truncation error.
    for (std::size_t s : psi.members()) result[s] = 1.0;
    return result;
  }

  // I = [t1, t2] with t1 > 0: the standard two-phase scheme.  Phase 2
  // computes the terminal vector v; phase 1 pushes it backward over [0, t1]
  // on the chain with ~Phi absorbing (Phi must hold throughout [0, t1]).
  const std::size_t n = model_->num_states();
  std::vector<double> v;
  if (time.lo == time.hi) {
    v = (phi & psi).indicator();
  } else {
    v = time_bounded_until(phi, psi, Interval::upto(time.hi - time.lo));
    for (std::size_t s = 0; s < n; ++s)
      if (!phi.contains(s)) v[s] = 0.0;
  }
  const Mrm holding = make_absorbing(*model_, phi.complement(),
                                     /*zero_reward=*/false);
  std::vector<double> result =
      transient_backward(holding.chain(), v, time.lo, options_.transient);
  // Starting in a ~Phi state, Phi fails immediately at every t' < t1.
  for (std::size_t s = 0; s < n; ++s)
    if (!phi.contains(s)) result[s] = 0.0;
  return result;
}

std::vector<double> Checker::reward_bounded_until(const StateSet& phi,
                                                  const StateSet& psi,
                                                  Interval reward) const {
  CSRL_SPAN("core/until/p2");
  // P2: swap the reward bound into a time bound on the dual model
  // [4, Thm 1].  Sat sets live on the same state space, so they transfer
  // unchanged.
  //
  // For J = [0, r] we apply the P1 absorbing transform *before* dualising:
  // the until probability is insensitive to it, and it relaxes the
  // duality's positivity precondition to the states the paths actually
  // traverse (Psi-states and illegal states may then carry reward 0).
  if (reward.lo == 0.0) {
    const Mrm frozen =
        make_absorbing(*model_, (phi - psi).complement(), /*zero_reward=*/false);
    const Mrm dual_model = dual(frozen);
    std::vector<double> result = transient_reach(dual_model.chain(), psi,
                                                 reward.hi, options_.transient);
    for (std::size_t s : psi.members()) result[s] = 1.0;
    return result;
  }

  // General reward interval [r1, r2]: dualise the full model (every
  // non-absorbing state needs positive reward) and run the two-phase
  // time-interval scheme there.
  const Mrm dual_model = dual(*model_);
  const Checker dual_checker(dual_model, options_);
  return dual_checker.time_bounded_until(phi, psi, reward);
}

std::vector<double> Checker::time_reward_bounded_until(const StateSet& phi,
                                                       const StateSet& psi,
                                                       double t,
                                                       double r) const {
  if (!(t >= 0.0) || !(r >= 0.0))
    throw ModelError("until: time and reward bounds must be >= 0");

  CSRL_SPAN("core/until/p3");

  // Theorem 1 reduction + engine run, shared with the batched lattice path
  // (core/batch.hpp): a point query is its 1 x 1 grid.
  const double times[1] = {t};
  const double rewards[1] = {r};
  std::vector<std::vector<double>> grid =
      until_grid_sets(phi, psi, times, rewards);
  return std::move(grid[0]);
}

}  // namespace csrl
