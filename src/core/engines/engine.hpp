// Engine interface for the paper's central numerical problem.
//
// Theorems 1 and 2 reduce time- and reward-bounded until (property class
// P3) to "reward-bounded instant-of-time reachability": the joint
// probability  Pr{Y_t <= r, X_t = j}  on the two-dimensional process
// (X_t, Y_t) of Figure 1, evaluated on the reduced model.  Section 4 of
// the paper develops three procedures for it; each is implemented behind
// this common interface so the checker, the benches and the cross-
// validating tests can swap them freely:
//
//   * ErlangEngine          (Section 4.2, pseudo-Erlang approximation)
//   * DiscretisationEngine  (Section 4.3, Tijms-Veldman)
//   * SericolaEngine        (Section 4.4, occupation-time distributions)
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mrm/mrm.hpp"
#include "util/state_set.hpp"
#include "util/thread_pool.hpp"

namespace csrl {

/// Result of a joint-distribution computation.
struct JointDistribution {
  /// per_state[j] = Pr{Y_t <= r, X_t = j}, from the model's initial
  /// distribution.
  std::vector<double> per_state;
  /// Algorithm-specific effort indicator: Sericola reports the truncation
  /// depth N_epsilon, the Erlang engine the number of uniformisation steps
  /// on the expanded chain, the discretisation engine the number of time
  /// steps t/d.
  std::size_t steps = 0;

  /// Sum of per_state over a set of interest (e.g. Sat(Psi)).
  double probability_in(const StateSet& states) const;
};

/// A procedure computing the joint state/accumulated-reward distribution.
class JointDistributionEngine {
 public:
  virtual ~JointDistributionEngine() = default;

  /// Pr{Y_t <= r, X_t = j} for all j, starting from the model's initial
  /// distribution.  Requires t >= 0 and r >= 0.
  virtual JointDistribution joint_distribution(const Mrm& model, double t,
                                               double r) const = 0;

  /// For every start state s, Pr_s{Y_t <= r, X_t in target}.  This is the
  /// shape Sat-set computation needs.  The default implementation runs
  /// joint_distribution() once per state with a point-mass initial
  /// distribution; engines with a cheaper all-states formulation override
  /// it.
  virtual std::vector<double> joint_probability_all_starts(
      const Mrm& model, double t, double r, const StateSet& target) const;

  /// Grid form of joint_probability_all_starts: evaluates every pair
  /// (times[i], rewards[j]) of the bound grid in one call and returns the
  /// vectors grid-point major,
  ///   result[i * rewards.size() + j][s] = Pr_s{Y_{t_i} <= r_j, X_{t_i} in target}.
  /// Every engine amortises work across the grid (its recursion yields the
  /// smaller bounds as by-products), under the contract that every
  /// returned vector is BITWISE identical to the corresponding point call
  /// — joint_grid_reference below is that point loop.
  virtual std::vector<std::vector<double>> joint_probability_all_starts_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards, const StateSet& target) const = 0;

  /// Grid form of joint_distribution over the same (times x rewards)
  /// lattice, grid-point major; same bitwise contract as above, against
  /// joint_distribution_grid_reference.
  virtual std::vector<JointDistribution> joint_distribution_grid(
      const Mrm& model, std::span<const double> times,
      std::span<const double> rewards) const = 0;

  /// Short human-readable name ("sericola", "erlang-256", ...).
  virtual std::string name() const = 0;

  /// The pool this engine's per-state sweeps dispatch on: the one injected
  /// at construction, or the process-wide shared pool.  Nested formulas
  /// checked by one Checker therefore reuse a single set of workers.
  ThreadPool& pool() const {
    return pool_ ? *pool_ : ThreadPool::global();
  }

 protected:
  JointDistributionEngine() = default;
  explicit JointDistributionEngine(std::shared_ptr<ThreadPool> pool)
      : pool_(std::move(pool)) {}

 private:
  std::shared_ptr<ThreadPool> pool_;
};

/// Shared preprocessing used by every engine: handles the trivial cases
/// t == 0 (distribution is the initial one), r large enough that the
/// reward bound cannot bind (plain transient analysis applies), and r == 0
/// (exact via transient analysis with positive-reward states frozen).
/// Returns true and fills `out` if the case was trivial.
bool joint_distribution_trivial_case(const Mrm& model, double t, double r,
                                     JointDistribution& out);

/// Whether joint_distribution_trivial_case takes (t, r) on `model`.  The
/// answer depends on t, r, the rewards and the impulses, never on the
/// initial distribution.  Throws on invalid bounds, as that call does.
bool joint_distribution_is_trivial(const Mrm& model, double t, double r);

/// The same trivial cases in the all-start-states shape: fills out[s] with
/// Pr_s{Y_t <= r, X_t in target} when t, r make the problem degenerate.
bool joint_all_starts_trivial_case(const Mrm& model, double t, double r,
                                   const StateSet& target,
                                   std::vector<double>& out);

/// Point-by-point grid references: literally loop the single-point entry
/// points over the lattice, grid-point major.  These are the oracle the
/// differential tests and the bench SpMV comparisons diff the engines'
/// grid methods against.
std::vector<std::vector<double>> joint_grid_reference(
    const JointDistributionEngine& engine, const Mrm& model,
    std::span<const double> times, std::span<const double> rewards,
    const StateSet& target);

std::vector<JointDistribution> joint_distribution_grid_reference(
    const JointDistributionEngine& engine, const Mrm& model,
    std::span<const double> times, std::span<const double> rewards);

}  // namespace csrl
