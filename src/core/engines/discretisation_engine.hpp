// Tijms-Veldman discretisation (Section 4.3, after [24]).
//
// Time and accumulated reward are discretised with the same step size d.
// F^j(s, k) approximates the joint density of being in state s at time j*d
// having accumulated reward k*d.  With natural-number reward rates, one
// time step in state s advances the reward index by exactly rho(s), and
// the recursion of the paper applies:
//
//   F^{j+1}(s, k) = F^j(s, k - rho(s)) (1 - E(s) d)
//                 + sum_{s'} F^j(s', k - rho(s')) R(s', s) d
//
// (the displacement of the incoming term uses the *donor* state's reward
// rho(s'), following the paper's prose — its typeset formula says rho(s),
// which disagrees with the explanation underneath it; both choices agree
// in the d -> 0 limit).  Negative reward indices denote impossible
// configurations and contribute zero.
//
// After T = t/d iterations,
//
//   Pr{Y_t <= r, X_t in S'}  ~  sum_{s in S'} sum_{k=0}^{R} F^T(s, k) d,
//
// with R = r/d.  We include k = 0 in the sum (the paper starts at k = 1):
// the k = 0 column carries the probability *atom* of paths that only ever
// visited zero-reward states, which is genuinely part of {Y_t <= r}.
//
// Preconditions (as in the paper): every reward rate is a natural number
// (rational rewards must be pre-scaled by the caller), t and r are
// multiples of d, and d is small enough that E(s) d < 1 for every state.
// The error decreases linearly in d while the work grows ~ d^{-2}, which
// is what bench_table4_discretisation measures.
#pragma once

#include "core/engines/engine.hpp"
#include "logic/formula.hpp"

namespace csrl {

/// Section 4.3's engine.  `step` is the discretisation step d.  The
/// per-state recurrence sweep runs on `pool` (nullptr = the shared pool);
/// results are bit-identical at any thread count because each state's row
/// of F is written by exactly one chunk.  `rhs_block` is the lane-group
/// width of the all-starts grid (0 = automatic via CSRL_RHS_BLOCK /
/// kDefaultRhsBlock, 1 = one start state per group): each group carries
/// that many start states' F recursions lane-interleaved, sweeps only the
/// rows its starts can have reached, and is bitwise identical per lane to
/// the one-start run.
class DiscretisationEngine : public JointDistributionEngine {
 public:
  explicit DiscretisationEngine(double step,
                                std::shared_ptr<ThreadPool> pool = nullptr,
                                std::size_t rhs_block = 0);

  JointDistribution joint_distribution(const Mrm& model, double t,
                                       double r) const override;

  /// General-window until (the paper's Section-6 outlook: "time- and
  /// reward intervals of a more general nature"): the probability, from
  /// the model's initial distribution, of
  ///
  ///     Phi U^{[t1,t2]}_{[r1,r2]} Psi
  ///
  /// with all four bounds arbitrary (upper bounds finite).  The joint
  /// time/reward grid makes this a natural extension of the Tijms-Veldman
  /// scheme: mass flows as usual through Phi-states, arrivals in
  /// (Psi & !Phi)-states are classified on the spot, mass sitting in
  /// (Psi & Phi)-states is harvested as soon as both windows are open,
  /// and mass whose reward exceeds r2 (or whose clock exceeds t2) can
  /// never qualify again because both coordinates are monotone.
  /// Error O(d), like joint_distribution.  Impulse rewards supported.
  /// Cross-validated against the Monte-Carlo simulator, which implements
  /// the same semantics by an unrelated method.
  double interval_until(const Mrm& model, const StateSet& phi,
                        const StateSet& psi, Interval time,
                        Interval reward) const;

  // joint_probability_all_starts is inherited: the scheme propagates a
  // density forward from one initial distribution, so the point form runs
  // joint_distribution once per start state.  It is the oracle the grid
  // forms below are diffed against.

  /// Batched lattice evaluation.  Column k of F^{j+1} depends only on
  /// columns <= k of F^j (reward shifts are non-negative), so one sweep
  /// over a grid wide enough for the largest reward bound leaves every
  /// lower column bit-identical to a narrower run; each grid point is
  /// harvested from the shared F array the moment its own step count j =
  /// t/d is reached.  A T x R grid thus costs one (max t, max r) run: the
  /// all-starts grid's kernel with one lane, seeded from the initial
  /// distribution.
  std::vector<JointDistribution> joint_distribution_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards) const override;

  /// Grid form of the per-start-state shape.  Set-up (reward indices,
  /// stay factors, donor table, F buffers) happens once per call; then each
  /// group of rhs_block start states runs one lane-interleaved recursion
  /// over its reachable rows only, and each live point folds only the
  /// target rows.  Trivial cells take the point loop's per-start route.
  /// Bitwise equal to joint_grid_reference.
  std::vector<std::vector<double>> joint_probability_all_starts_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards, const StateSet& target) const override;

  std::string name() const override;

  double step() const { return step_; }

 private:
  double step_;
  std::size_t rhs_block_;  // resolved effective width, in [1, kMaxRhsBlock]
};

}  // namespace csrl
