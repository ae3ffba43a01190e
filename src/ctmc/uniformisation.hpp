// Transient analysis of CTMCs by uniformisation.
//
// This is the workhorse behind model checking time-bounded until (property
// class P1 of the paper, following [3]), the dual reward-bounded until
// (P2), and the pseudo-Erlang engine for the combined case (P3).
#pragma once

#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "util/state_set.hpp"

namespace csrl {

class Workspace;

/// Accumulator for the active-support truncation error (see
/// TransientOptions::support_epsilon).  The mass dropped below the
/// threshold sums across every call that carries the budget; because the
/// uniformised matrix is substochastic and the Poisson weights sum to at
/// most 1, `support_dropped` soundly bounds both the L1 deviation of a
/// forward result and the max-norm deviation of a backward result from
/// the corresponding epsilon = 0 (bitwise dense-identical) run.  The
/// total error bound of a run is this plus the a-priori Fox-Glynn
/// epsilon; RunReport carries both (obs/report.hpp).
struct TruncationBudget {
  double support_dropped = 0.0;
};

/// Controls for uniformisation-based transient analysis.
struct TransientOptions {
  /// Bound on the truncation error of the Poisson series (L1, a priori).
  double epsilon = 1e-10;
  /// Uniformisation rate lambda; 0 selects max exit rate automatically
  /// (with a fallback of 1.0 for a chain where every state is absorbing).
  double uniformisation_rate = 0.0;
  /// Stop iterating powers of P early once the iterate is stationary to
  /// within steady_state_tolerance and attribute the remaining Poisson
  /// mass to that iterate.
  bool steady_state_detection = true;
  double steady_state_tolerance = 1e-14;
  /// Iterate over the active frontier only while it is sparse
  /// (matrix/support.hpp), switching to the dense fused kernel once it
  /// covers support_crossover of the state space.  Engages only for
  /// non-negative start vectors (all library uses); results are bitwise
  /// identical to the dense path whenever support_epsilon is 0.
  bool active_support = true;
  /// Drop frontier entries with magnitude below this threshold.  The
  /// dropped mass accumulates into `budget` (and the obs histogram
  /// "uniformisation/truncation_dropped") as a sound deviation bound; 0
  /// drops nothing and reproduces the dense output bit for bit.
  double support_epsilon = 0.0;
  /// Frontier density (fraction of states) above which the active mode
  /// hands over to the dense kernel.
  double support_crossover = 0.25;
  /// Block width B for the multi-RHS (SpMM) lane groups of the Sericola
  /// and discretisation engines (matrix/spmm.hpp); the CheckOptions knob
  /// reaches them through this field.  Transient runs themselves do not
  /// read it: batched horizons always travel as one interleaved
  /// accumulator block per matrix pass.  0 = automatic: the
  /// CSRL_RHS_BLOCK environment variable if set, else the bench-chosen
  /// default (kDefaultRhsBlock, currently 8); an explicit value wins
  /// over the environment, exactly the num_threads pattern.  1 disables
  /// blocking (the one-RHS paths).  Values above kMaxRhsBlock (64) are
  /// rejected when an engine is built; a malformed or out-of-range
  /// environment value warns on stderr and falls back to the default
  /// (util/env.hpp).  Results are bitwise identical at every width.
  std::size_t rhs_block = 0;
  /// Optional scratch arena (util/workspace.hpp): series buffers are
  /// leased from it instead of allocated per call, so a warmed arena
  /// serves a whole batched grid without heap traffic.  Not owned; may
  /// be null.  The arena is not thread-safe — share one only across
  /// calls issued from the same thread.
  Workspace* workspace = nullptr;
  /// Optional truncation-error accumulator.  Not owned; may be null.
  TruncationBudget* budget = nullptr;
};

/// Forward transient analysis: the state distribution at time t >= 0,
/// starting from `initial` (non-negative, typically summing to 1).
/// Returns a vector of size num_states; entries sum to sum(initial) up to
/// the truncation error.
std::vector<double> transient_distribution(const Ctmc& chain,
                                           std::span<const double> initial,
                                           double t,
                                           const TransientOptions& options = {});

/// Backward transient analysis with an arbitrary terminal value vector v:
/// returns u with u(s) = E_s[v(X_t)] = (e^{Qt} v)(s).  With v an indicator
/// this is occupancy probability; with v a vector of until-probabilities it
/// implements the two-phase scheme for general time intervals.  Every
/// entry of v must be finite (ModelError otherwise).
std::vector<double> transient_backward(const Ctmc& chain,
                                       std::span<const double> terminal,
                                       double t,
                                       const TransientOptions& options = {});

/// Backward transient analysis: for every state s, the probability
/// Pr_s{X_t in target} of occupying `target` at time t when starting in s.
/// One uniformisation run delivers the value for all start states, which is
/// exactly the shape Sat-set computation needs.
std::vector<double> transient_reach(const Ctmc& chain, const StateSet& target,
                                    double t,
                                    const TransientOptions& options = {});

/// Backward cumulative transient analysis: u(s) = E_s[integral_0^t
/// v(X_u) du] for every start state s (R=?[C<=t] with v the effective
/// reward rates).  The shared series loop runs on tail windows,
/// u = (1/lambda) sum_{n=0}^{right} Pr{N > n} P^n v; where nothing moves
/// (t == 0, every state absorbing) u = v t.  Entries of v must be finite
/// and are not confined to [0, 1].  For v >= 0 with maximum rho_max:
///   |u(s) - E_s[Y_t]| <= rho_max t epsilon + tolerance lambda t^2 / 2.
/// The first term is the truncation (each of the ~lambda t tails falls
/// short of Pr{N > n} by at most epsilon).  The second applies only when
/// the steady-state cutoff fires: later iterates move by at most the
/// tolerance per step (P is stochastic), and the folded tails weigh
/// iterate m by Pr{N > m}, whose m-weighted sum is (lambda t)^2 / 2.
/// With steady_state_detection off, u is the plain series bit for bit.
std::vector<double> transient_backward_cumulative(
    const Ctmc& chain, std::span<const double> rates, double t,
    const TransientOptions& options = {});

// -- Batched (multi-horizon) forms -----------------------------------------
//
// One vector-power sequence P^n serves every horizon at once: the iterate
// at step n is shared, only the Poisson windows differ per t, so a batch
// over horizons {t_1, ..., t_T} costs one run at max t_i in SpMVs instead
// of T runs.  Each returned vector is BITWISE identical to the
// corresponding single-horizon call: per horizon, the same iterates are
// accumulated with the same weights in the same order, the horizon's
// series simply stops being accumulated once n passes its own Fox-Glynn
// right bound, and a steady-state cutoff folds the remaining mass of each
// still-running horizon's window exactly as the single run would (a
// horizon whose window ended before the cutoff step never reaches the
// detection in the single run either).  Horizons may come in any order
// and may repeat.

/// transient_distribution for several horizons; result[i] bitwise equals
/// transient_distribution(chain, initial, times[i], options).
std::vector<std::vector<double>> transient_distribution_batch(
    const Ctmc& chain, std::span<const double> initial,
    std::span<const double> times, const TransientOptions& options = {});

/// transient_backward for several horizons; result[i] bitwise equals
/// transient_backward(chain, terminal, times[i], options).
std::vector<std::vector<double>> transient_backward_batch(
    const Ctmc& chain, std::span<const double> terminal,
    std::span<const double> times, const TransientOptions& options = {});

/// transient_reach for several horizons; result[i] bitwise equals
/// transient_reach(chain, target, times[i], options).
std::vector<std::vector<double>> transient_reach_batch(
    const Ctmc& chain, const StateSet& target, std::span<const double> times,
    const TransientOptions& options = {});

}  // namespace csrl
