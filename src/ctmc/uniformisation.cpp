#include "ctmc/uniformisation.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "ctmc/foxglynn.hpp"
#include "matrix/simd.hpp"
#include "matrix/support.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/workspace.hpp"

namespace csrl {

namespace {

/// Contract helper: all entries of `v` finite and inside [-tol, cap+tol].
bool within_probability_bounds(std::span<const double> v, double cap,
                               double tol) {
  for (double x : v)
    if (!std::isfinite(x) || x < -tol || x > cap + tol) return false;
  return true;
}

double resolve_rate(const Ctmc& chain, const TransientOptions& options) {
  if (options.uniformisation_rate != 0.0) {
    if (options.uniformisation_rate < chain.max_exit_rate())
      throw ModelError("transient analysis: uniformisation rate below max exit rate");
    return options.uniformisation_rate;
  }
  return chain.max_exit_rate() > 0.0 ? chain.max_exit_rate() : 1.0;
}

/// The active-support mode engages only for non-negative start vectors.
/// Together with the strictly positive stored entries of the uniformised
/// DTMC this rules out signed zeros anywhere in the iteration, which is
/// what makes "skip an off-support term" bit-identical to "add its exact
/// +0.0" in the dense kernel.  (A NaN entry fails v >= 0 and falls back
/// to the dense path too.)
bool eligible_for_active(std::span<const double> start) {
  for (double v : start)
    if (!(v >= 0.0)) return false;
  return true;
}

/// One step's latency sample for the "latency/uniformisation_step"
/// histogram.  Dormant-safe: when recording is off the constructor does
/// not even read the clock, so the series loop's per-step overhead stays
/// one predicted branch.  The destructor fires on break/cutoff exits
/// too, so the last (partial) step is still sampled.
struct StepLatencySample {
  StepLatencySample() : t0(CSRL_OBS_ACTIVE() ? obs::now_ns() : -1) {}
  ~StepLatencySample() {
    if (t0 >= 0)
      CSRL_HIST("latency/uniformisation_step",
                static_cast<double>(obs::now_ns() - t0) * 1e-9);
  }
  StepLatencySample(const StepLatencySample&) = delete;
  StepLatencySample& operator=(const StepLatencySample&) = delete;
  std::int64_t t0;
};

/// acc[i * W + w] += weights[w] * x[i] for every state i and window w
/// (W = weights.size()): the fused epilogue's per-lane arithmetic, run
/// outside a product for the steady-state fold and the final flush.
void add_weighted(std::span<const double> x, std::span<const double> weights,
                  std::span<double> acc) {
  const std::size_t num_windows = weights.size();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    double* out = acc.data() + i * num_windows;
    CSRL_PRAGMA_SIMD
    for (std::size_t w = 0; w < num_windows; ++w) out[w] += weights[w] * xi;
  }
}

/// Set weights[w] to window w's Poisson weight at n jumps (0.0 outside
/// the window).  Returns whether any window covers n, i.e. whether step
/// n has an epilogue to carry at all.
bool weights_at(const std::vector<PoissonWeights>& windows, std::size_t n,
                std::span<double> weights) {
  bool any = false;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const PoissonWeights& window = windows[w];
    // Fox-Glynn guarantees at least one weight for every lambda*t >= 0;
    // the size bound keeps a degenerate window from reading past its end.
    const bool covered =
        n >= window.left && n - window.left < window.weights.size();
    weights[w] = covered ? window.weights[n - window.left] : 0.0;
    any = any || covered;
  }
  return any;
}

/// What a window weighs the step-n iterate with: the Poisson pmf
/// Pr{N = n} (the value at t) or its tail Pr{N > n} (lambda times the
/// value integrated over [0, t]).
enum class WindowKind { kPmf, kTail };

/// Tails Pr{N > n} = total - sum_{m <= n} pmf(m) for n = 0..right,
/// clamped at 0.0: a clamped step is an exact-zero lane weight, a
/// bit-level no-op in the series loop.
PoissonWeights tail_window(const PoissonWeights& pmf) {
  PoissonWeights tail;
  tail.right = pmf.right;
  // lint:allow hot-alloc (per-horizon window setup, before the series loop)
  tail.weights.resize(pmf.right + 1);
  double remaining = pmf.total;
  for (std::size_t n = 0; n <= pmf.right; ++n) {
    remaining -= pmf.weight(n);
    tail.weights[n] = remaining > 0.0 ? remaining : 0.0;
    tail.total += tail.weights[n];
  }
  return tail;
}

/// The one series loop behind every transient entry point, single- or
/// multi-horizon (a single horizon is simply a one-window batch; the
/// header's bitwise batch == single guarantee is by construction).  One
/// iterate sequence P^n serves every window.  The per-window running sums
/// live interleaved in acc[i * W + w] (W = windows.size(); zeroed here),
/// and all W Poisson updates of one step ride the product's traversal as
/// ONE FusedBlockAxpy — a contiguous, vectorizable lane loop per row.
/// Every lane performs the identical out += weight * x sequence of its
/// own single run: steps outside a window carry lane weight 0.0, whose
/// exact zero add is a bit-level no-op (matrix/support.hpp), and steps
/// outside every window carry no epilogue at all.
///
/// Poisson-weight updates are deferred one step so they ride the next
/// SpMV's memory traversal (the fused kernels of matrix/csr.hpp): the
/// weight-n update on the step-n iterate is carried as the pending of
/// step n + 1.  The window anchors (weight 0 on the start vector) ride
/// the first step, and whatever is pending when the loop ends is flushed
/// outside a product.  A steady-state cutoff at step n happens before
/// weight n is pended, so the remaining-mass fold (which starts at n)
/// attributes each window's tail exactly as the unfused loop did.
///
/// While the start vector is non-negative and its support is below the
/// crossover density, steps run on the active-support kernels, which
/// visit only the frontier and keep the result bit-identical to the
/// dense path for support_epsilon == 0.  With support_epsilon > 0,
/// frontier entries below the threshold are dropped and their total
/// magnitude accumulates into `dropped`: each step's drop vector d
/// perturbs every later iterate by at most ||d||_1 in L1 (P is
/// substochastic), and the Poisson weights sum to at most 1, so the
/// total is a sound bound on the L1 (forward) / max-norm (backward)
/// deviation of every result from its epsilon = 0 run.
void accumulate_series(const CsrMatrix& p, bool forward,
                       std::vector<double>& iterate,
                       std::vector<double>& scratch,
                       const std::vector<PoissonWeights>& windows,
                       std::span<double> acc, std::span<double> weights,
                       const TransientOptions& options) {
  const std::size_t n_states = iterate.size();
  const std::size_t num_windows = windows.size();
  std::size_t max_right = 0;
  for (const PoissonWeights& w : windows)
    max_right = std::max(max_right, w.right);

  std::fill(acc.begin(), acc.end(), 0.0);
  const FusedBlockAxpy pending{weights.data(), acc.data(), num_windows,
                               num_windows};
  bool carry = weights_at(windows, 0, weights);

  bool active = options.active_support && n_states > 0 &&
                eligible_for_active(iterate);
  if (active) {
    std::size_t support = 0;
    for (double v : iterate)
      if (v != 0.0) ++support;
    active = static_cast<double>(support) <=
             options.support_crossover * static_cast<double>(n_states);
  }
  SupportMask mask_in;
  SupportMask mask_out;
  if (active) {
    mask_in = SupportMask(n_states);
    mask_in.reset_to_support(iterate);
    mask_out = SupportMask(n_states);
    // The stale mask of scratch is empty, so scratch must be exactly
    // zero everywhere on entry to the first active step.
    std::fill(scratch.begin(), scratch.end(), 0.0);
  }
  p.warm_kernel_caches(forward || active);

  double dropped = 0.0;
  bool cutoff = false;
  for (std::size_t n = 1; n <= max_right; ++n) {
    CSRL_COUNT("uniformisation/steps", 1);
    const StepLatencySample step_latency;
    const bool want_diff = options.steady_state_detection;
    const std::span<const FusedBlockAxpy> pendings =
        carry ? std::span<const FusedBlockAxpy>(&pending, 1)
              : std::span<const FusedBlockAxpy>{};
    double diff;
    if (active) {
      diff = forward ? p.multiply_left_active(iterate, scratch, mask_in,
                                              mask_out, pendings, want_diff)
                     : p.multiply_active(iterate, scratch, mask_in, mask_out,
                                         pendings, want_diff);
      if (options.support_epsilon > 0.0) {
        mask_out.remove_if_not([&](std::size_t i) {
          const double v = scratch[i];
          if (v != 0.0 && std::abs(v) < options.support_epsilon) {
            dropped += std::abs(v);
            scratch[i] = 0.0;
            return false;
          }
          return true;
        });
      }
    } else if (forward) {
      // One iterate in flight: batched horizons ride the fused epilogue.
      // lint:allow spmm-blocking (single power iterate per step)
      diff = p.multiply_left_fused(iterate, scratch, pendings, want_diff);
    } else {
      // lint:allow spmm-blocking (single power iterate per step)
      diff = p.multiply_fused(iterate, scratch, pendings, want_diff);
    }
    // The steady-state check compares the *full* vector (the fused diff
    // is a max-reduction over every entry, serial or parallel alike, and
    // the active kernels account for positions entering or leaving the
    // frontier), so convergence decisions are identical at any thread
    // count and in either mode.
    if (options.steady_state_detection &&
        diff <= options.steady_state_tolerance) {
      // The iterate has converged: every further power of P yields the
      // same vector, so the rest of each still-running window's Poisson
      // mass multiplies it.  A window that ended before this step already
      // received its full series and folds an exact 0.0.
      for (std::size_t w = 0; w < num_windows; ++w) {
        double remaining = 0.0;
        if (windows[w].right >= n)
          for (std::size_t m = std::max(n, windows[w].left);
               m <= windows[w].right; ++m)
            remaining += windows[w].weight(m);
        weights[w] = remaining;
      }
      add_weighted(scratch, weights, acc);
      iterate.swap(scratch);
      CSRL_COUNT("uniformisation/steady_state_cutoffs", 1);
      cutoff = true;
      break;
    }
    iterate.swap(scratch);
    if (active) {
      // After the swap the out-mask names the support of the new
      // iterate and the in-mask names the stale non-zeros of the new
      // scratch — exactly the entry invariant of the next step.
      std::swap(mask_in, mask_out);
      // Hand over to the dense kernels once the frontier stops being
      // sparse; they overwrite scratch in full, so the masks simply
      // retire.  The handover never changes bits, only traversal order
      // of identical per-element operations.
      if (static_cast<double>(mask_in.size()) >
          options.support_crossover * static_cast<double>(n_states))
        active = false;
    }
    carry = weights_at(windows, n, weights);
  }
  // Flush the last pending weights against the final iterate.
  if (!cutoff && carry) add_weighted(iterate, weights, acc);
  if (options.support_epsilon > 0.0)
    CSRL_HIST("uniformisation/truncation_dropped", dropped);
  if (options.budget != nullptr) options.budget->support_dropped += dropped;
}

/// Shared wrapper for every entry point: splits degenerate horizons
/// (t == 0, empty or fully absorbing chain) from the series horizons,
/// builds the per-horizon windows, leases the iteration buffers and runs
/// the series loop.  `start` is the t = 0 vector (initial distribution
/// or terminal values); `forward` selects distribution pushing (y = x P)
/// over value backpropagation (y = P x).  With WindowKind::kTail every
/// result is the integral over [0, t] instead: the tail-weighted sum
/// scaled by 1/lambda, and start * t where nothing moves.
std::vector<std::vector<double>> run_batch(const Ctmc& chain,
                                           std::span<const double> start,
                                           std::span<const double> times,
                                           const TransientOptions& options,
                                           const char* what, bool forward,
                                           WindowKind kind = WindowKind::kPmf) {
  const std::size_t n = chain.num_states();
  if (start.size() != n)
    throw ModelError(std::string(what) + ": vector size mismatch");
  for (double t : times)
    if (!(t >= 0.0) || !std::isfinite(t))
      // lint:allow hot-throw (argument validation at entry, before any series work)
      throw ModelError(std::string(what) + ": times must be finite and >= 0");

  std::vector<std::vector<double>> results(times.size());
  std::vector<std::size_t> series;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] == 0.0 || n == 0 || chain.max_exit_rate() == 0.0) {
      results[i].assign(start.begin(), start.end());
      if (kind == WindowKind::kTail)
        for (double& v : results[i]) v *= times[i];
    } else {
      // lint:allow hot-alloc (horizon scan at entry, before the series loop)
      series.push_back(i);
    }
  }
  if (series.empty()) return results;

  const double lambda = resolve_rate(chain, options);
  const CsrMatrix p = chain.uniformised_dtmc(lambda);

  const std::size_t num_windows = series.size();
  std::vector<PoissonWeights> windows;
  windows.reserve(num_windows);
  for (std::size_t i : series) {
    PoissonWeights pmf = poisson_weights(lambda * times[i], options.epsilon);
    // lint:allow hot-alloc (per-horizon window setup into capacity reserved above, before the series loop)
    windows.push_back(kind == WindowKind::kTail ? tail_window(pmf)
                                                : std::move(pmf));
    // lint:allow hot-alloc (sizes each result once at entry, before the series loop)
    results[i].resize(n);
  }

  // The guard observes the whole series phase: against a warmed arena
  // the leases reuse retired buffers and the loop itself performs no
  // arena allocation, so the counter reports zero (tests pin this).
  // Largest lease first: the arena hands out its biggest retired buffer
  // on every acquire, so descending sizes keep a warmed arena's buffers
  // matched to the same requests call after call.  A single horizon
  // accumulates straight into its result vector and needs no lease of
  // its own; several share one interleaved block, with their lane
  // weights at its tail, unpacked into the results afterwards.
  Workspace::LoopGuard guard(options.workspace);
  std::optional<Workspace::Lease> block_lease;
  if (num_windows > 1)
    block_lease.emplace(options.workspace, (n + 1) * num_windows);
  Workspace::Lease iterate_lease(options.workspace, n);
  Workspace::Lease scratch_lease(options.workspace, n);
  double single_weight = 0.0;
  std::span<double> acc(results[series[0]]);
  std::span<double> weights(&single_weight, 1);
  if (block_lease) {
    acc = block_lease->span().first(n * num_windows);
    weights = block_lease->span().last(num_windows);
  }
  std::vector<double>& iterate = iterate_lease.get();
  iterate.assign(start.begin(), start.end());
  accumulate_series(p, forward, iterate, scratch_lease.get(), windows, acc,
                    weights, options);
  if (block_lease) {
    for (std::size_t w = 0; w < num_windows; ++w) {
      std::vector<double>& out = results[series[w]];
      for (std::size_t i = 0; i < n; ++i) out[i] = acc[i * num_windows + w];
    }
  }
  if (kind == WindowKind::kTail) {
    const double inv_lambda = 1.0 / lambda;
    for (std::size_t i : series)
      for (double& v : results[i]) v *= inv_lambda;
  }
  CSRL_COUNT("uniformisation/allocs_in_loop", guard.heap_allocations());
  return results;
}

/// Terminal value vectors must be finite: a weight-0.0 lane would add
/// 0 * inf = NaN, and the result would be silently non-finite anyway.
void require_finite_terminal(std::span<const double> terminal,
                             const char* what) {
  for (double v : terminal)
    if (!std::isfinite(v))
      throw ModelError(std::string(what) + ": terminal values must be finite");
}

}  // namespace

std::vector<double> transient_distribution(const Ctmc& chain,
                                           std::span<const double> initial,
                                           double t,
                                           const TransientOptions& options) {
  const std::size_t n = chain.num_states();
  if (initial.size() != n)
    throw ModelError("transient_distribution: initial distribution size mismatch");
  for (double v : initial)
    if (!(v >= 0.0) || !std::isfinite(v))
      throw ModelError("transient_distribution: initial entries must be >= 0");
  if (!(t >= 0.0) || !std::isfinite(t))
    throw ModelError("transient_distribution: time must be finite and >= 0");

  // With every state absorbing the distribution never moves; returning it
  // directly also avoids charging the truncation error for nothing.
  if (t == 0.0 || n == 0 || chain.max_exit_rate() == 0.0)
    return std::vector<double>(initial.begin(), initial.end());

  CSRL_SPAN("ctmc/transient/forward");

  const double times[1] = {t};
  auto results = run_batch(chain, initial, times, options,
                           "transient_distribution", /*forward=*/true);
  std::vector<double> result = std::move(results[0]);
  // P is stochastic, so each entry stays within the initial total mass
  // and the summed mass can only shrink by the truncation error.  This
  // also holds for the sub-distributions the engines feed in.
  CSRL_CONTRACT(
      [&] {
        double mass_in = 0.0;
        for (double v : initial) mass_in += v;
        if (!within_probability_bounds(result, mass_in, 1e-9)) return false;
        double mass_out = 0.0;
        for (double v : result) mass_out += v;
        return mass_out <= mass_in + 1e-9;
      }(),
      "transient_distribution: result is not a sub-distribution of the "
      "initial mass at t = " + std::to_string(t));
  return result;
}

std::vector<double> transient_backward(const Ctmc& chain,
                                       std::span<const double> terminal,
                                       double t, const TransientOptions& options) {
  const std::size_t n = chain.num_states();
  if (terminal.size() != n)
    throw ModelError("transient_backward: terminal vector size mismatch");
  if (!(t >= 0.0) || !std::isfinite(t))
    throw ModelError("transient_backward: time must be finite and >= 0");
  require_finite_terminal(terminal, "transient_backward");

  if (t == 0.0 || n == 0 || chain.max_exit_rate() == 0.0)
    return std::vector<double>(terminal.begin(), terminal.end());

  CSRL_SPAN("ctmc/transient/backward");

  const double times[1] = {t};
  auto results = run_batch(chain, terminal, times, options,
                           "transient_backward", /*forward=*/false);
  std::vector<double> result = std::move(results[0]);
  // E_s[v(X_t)] is a convex-combination-of-v per step, so whenever the
  // terminal vector is a [0,1] value function the result must be too.
  CSRL_CONTRACT(within_probability_bounds(terminal, 1.0, 0.0)
                    ? within_probability_bounds(result, 1.0, 1e-9)
                    : true,
                "transient_backward: [0,1] terminal values produced an "
                "out-of-range expectation at t = " + std::to_string(t));
  return result;
}

std::vector<double> transient_reach(const Ctmc& chain, const StateSet& target,
                                    double t, const TransientOptions& options) {
  if (target.size() != chain.num_states())
    throw ModelError("transient_reach: target universe size mismatch");
  return transient_backward(chain, target.indicator(), t, options);
}

std::vector<double> transient_backward_cumulative(
    const Ctmc& chain, std::span<const double> rates, double t,
    const TransientOptions& options) {
  require_finite_terminal(rates, "transient_backward_cumulative");
  CSRL_SPAN("ctmc/transient/cumulative");
  const double times[1] = {t};
  auto results =
      run_batch(chain, rates, times, options, "transient_backward_cumulative",
                /*forward=*/false, WindowKind::kTail);
  return std::move(results[0]);
}

std::vector<std::vector<double>> transient_distribution_batch(
    const Ctmc& chain, std::span<const double> initial,
    std::span<const double> times, const TransientOptions& options) {
  for (double v : initial)
    if (!(v >= 0.0) || !std::isfinite(v))
      throw ModelError(
          "transient_distribution_batch: initial entries must be >= 0");

  CSRL_SPAN("ctmc/transient/forward_batch");
  auto results = run_batch(chain, initial, times, options,
                           "transient_distribution_batch", /*forward=*/true);
  CSRL_CONTRACT(
      [&] {
        double mass_in = 0.0;
        for (double v : initial) mass_in += v;
        for (const auto& result : results) {
          if (!within_probability_bounds(result, mass_in, 1e-9)) return false;
          double mass_out = 0.0;
          for (double v : result) mass_out += v;
          if (mass_out > mass_in + 1e-9) return false;
        }
        return true;
      }(),
      "transient_distribution_batch: a result is not a sub-distribution of "
      "the initial mass");
  return results;
}

std::vector<std::vector<double>> transient_backward_batch(
    const Ctmc& chain, std::span<const double> terminal,
    std::span<const double> times, const TransientOptions& options) {
  require_finite_terminal(terminal, "transient_backward_batch");
  CSRL_SPAN("ctmc/transient/backward_batch");
  auto results = run_batch(chain, terminal, times, options,
                           "transient_backward_batch", /*forward=*/false);
  CSRL_CONTRACT(
      [&] {
        if (!within_probability_bounds(terminal, 1.0, 0.0)) return true;
        for (const auto& result : results)
          if (!within_probability_bounds(result, 1.0, 1e-9)) return false;
        return true;
      }(),
      "transient_backward_batch: [0,1] terminal values produced an "
      "out-of-range expectation");
  return results;
}

std::vector<std::vector<double>> transient_reach_batch(
    const Ctmc& chain, const StateSet& target, std::span<const double> times,
    const TransientOptions& options) {
  if (target.size() != chain.num_states())
    throw ModelError("transient_reach_batch: target universe size mismatch");
  return transient_backward_batch(chain, target.indicator(), times, options);
}

}  // namespace csrl
