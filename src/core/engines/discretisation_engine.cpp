#include "core/engines/discretisation_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/validate.hpp"
#include "matrix/simd.hpp"
#include "matrix/spmm.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/workspace.hpp"

namespace csrl {

namespace {

/// Closest integer to x if it is within `tol`, throws otherwise.
std::size_t as_natural(double x, double tol, const char* what) {
  const double rounded = std::round(x);
  if (!(rounded >= 0.0) || std::abs(x - rounded) > tol)
    throw ModelError(std::string("DiscretisationEngine: ") + what +
                     " must be a non-negative integer multiple (got " +
                     std::to_string(x) + "); rescale rewards/step first");
  return static_cast<std::size_t>(rounded);
}

/// State-sweep grain sized so each chunk touches ~this many F cells.
std::size_t sweep_grain(std::size_t width) {
  constexpr std::size_t kCellsPerChunk = 1 << 13;
  return std::max<std::size_t>(1, kCellsPerChunk / std::max<std::size_t>(width, 1));
}

/// Integer reward index rho(s) of every state, as the paper requires.
std::vector<std::size_t> reward_indices(const Mrm& model) {
  std::vector<std::size_t> rho(model.num_states());
  for (std::size_t s = 0; s < rho.size(); ++s)
    rho[s] = as_natural(model.reward(s), 1e-9, "every reward rate");
  return rho;
}

/// The incoming transitions of every state, flattened CSR-style: the
/// donors of s are entries [begin[s], begin[s + 1]), in the row order of
/// the transposed rate matrix.  With impulse rewards (the Section-6
/// extension, following the approach of the later impulse-reward work) a
/// firing additionally displaces the reward index by iota/d, which must
/// therefore sit on the grid; that is checked here, before any sweep.
struct DonorTable {
  struct Donor {
    std::size_t state;
    double weight;      // R(donor, s) * d
    std::size_t shift;  // rho(donor) + iota(donor, s)/d
  };

  DonorTable(const Mrm& model, const std::vector<std::size_t>& rho, double d) {
    const CsrMatrix incoming = model.rates().transposed();
    begin.reserve(model.num_states() + 1);
    begin.push_back(0);
    donors.reserve(incoming.nnz());
    for (std::size_t s = 0; s < model.num_states(); ++s) {
      for (const auto& e : incoming.row(s)) {
        std::size_t shift = rho[e.col];
        if (model.has_impulse_rewards()) {
          const double iota = model.impulse(e.col, s);
          if (iota > 0.0)
            shift += as_natural(iota / d, 1e-6, "every impulse divided by d");
        }
        donors.push_back({e.col, e.value * d, shift});
      }
      begin.push_back(donors.size());
    }
  }

  std::span<const Donor> of(std::size_t s) const {
    return {donors.data() + begin[s], begin[s + 1] - begin[s]};
  }

  std::vector<std::size_t> begin;
  std::vector<Donor> donors;
};

/// A lattice point the recursion must compute: its grid slot, t/d and r/d.
struct LivePoint {
  std::size_t slot;
  std::size_t total_steps;
  std::size_t reward_cells;
};

LivePoint live_point(std::size_t slot, double t, double r, double d) {
  const LivePoint pt{slot, as_natural(t / d, 1e-6, "t/d"),
                     as_natural(r / d, 1e-6, "r/d")};
  if (pt.total_steps == 0)
    throw ModelError("DiscretisationEngine: t must be at least one step d");
  return pt;
}

/// 1 - E(s) d for every state; the scheme needs E(s) d < 1.
std::vector<double> stay_factors(const Mrm& model, double d) {
  std::vector<double> stay(model.num_states());
  for (std::size_t s = 0; s < stay.size(); ++s) {
    if (model.chain().exit_rate(s) * d >= 1.0)
      throw ModelError(
          "DiscretisationEngine: step too coarse, E(s)*d must stay below 1 "
          "(state " + std::to_string(s) + ")");
    stay[s] = 1.0 - model.chain().exit_rate(s) * d;
  }
  return stay;
}

std::size_t max_of(std::span<const LivePoint> live,
                   std::size_t LivePoint::*field) {
  std::size_t best = 0;
  for (const LivePoint& pt : live) best = std::max(best, pt.*field);
  return best;
}

/// Slack of the monotone-in-r grid contract: the O(d) error allowance of
/// the single-point postcondition at the largest horizon.
double monotone_slack(const Mrm& model, double d,
                      std::span<const double> times) {
  double t_max = 0.0;
  for (double t : times) t_max = std::max(t_max, t);
  return 2.0 * d * (1.0 + model.chain().max_exit_rate()) * std::max(1.0, t_max);
}

/// The lane-group kernel behind both grid entry points.
///
/// The constructor does the per-call set-up once: reward indices, stay
/// factors, the donor table and two zeroed F buffers wide enough for the
/// largest reward bound and lane count.  A group then seeds up to
/// `max_lanes` lane-interleaved F recursions (lane b's cell (s, k) lives at
/// (s * width + k) * lanes + b) and run() propagates them over the
/// frontier: the rows reachable from the seeds in at most j steps.  Once
/// the frontier covers every row it sweeps all rows in order and stops
/// growing.  run() ends by zeroing the rows it touched, so the next group
/// starts from clean buffers.
///
/// Every factor (1/d, 1 - E(s) d, R d) and every F cell is >= 0, so a row
/// outside the frontier holds exactly +0.0 in a full sweep as well, and a
/// frontier row reads such a donor as +0.0 here too.  Each frontier row
/// performs the per-cell arithmetic of the single-start full sweep in the
/// same order, so every lane is bitwise equal to that run.
class LaneGroupSweep {
 public:
  LaneGroupSweep(const Mrm& model, double d, std::span<const LivePoint> live,
                 std::size_t max_lanes, ThreadPool& workers)
      : model_(model),
        d_(d),
        live_(live),
        workers_(workers),
        n_(model.num_states()),
        rho_(reward_indices(model)),
        stay_(stay_factors(model, d)),
        donors_(model, rho_, d),
        max_steps_(max_of(live, &LivePoint::total_steps)),
        width_(max_of(live, &LivePoint::reward_cells) + 1),
        current_lease_(&workspace_, n_ * width_ * max_lanes),
        next_lease_(&workspace_, n_ * width_ * max_lanes),
        current_(&current_lease_.get()),
        next_(&next_lease_.get()),
        reached_(n_, 0) {
    CSRL_GAUGE("p3/discretisation/time_steps", static_cast<double>(max_steps_));
    CSRL_GAUGE("p3/discretisation/reward_cells", static_cast<double>(width_));
    std::fill(current_->begin(), current_->end(), 0.0);
    std::fill(next_->begin(), next_->end(), 0.0);
    frontier_.reserve(n_);
  }

  ~LaneGroupSweep() {
    CSRL_COUNT("p3/discretisation/allocs_in_loop", guard_.heap_allocations());
  }

  LaneGroupSweep(const LaneGroupSweep&) = delete;
  LaneGroupSweep& operator=(const LaneGroupSweep&) = delete;

  /// Starts a group of `lanes` recursions, in [1, max_lanes].
  void begin_group(std::size_t lanes) { lanes_ = lanes; }

  /// F^1 of lane b: one step of duration d from initial mass `mass` at s,
  /// which has earned reward index rho(s).
  void seed(std::size_t s, std::size_t b, double mass) {
    if (rho_[s] < width_)
      (*current_)[(s * width_ + rho_[s]) * lanes_ + b] += mass / d_;
    reach(s);
  }

  /// Propagates the group to the largest t/d and calls harvest(pt) for
  /// every live point once its own step count is reached.
  template <typename Harvest>
  void run(Harvest&& harvest) {
    const auto harvest_due = [&](std::size_t steps_done) {
      for (const LivePoint& pt : live_)
        if (pt.total_steps == steps_done) harvest(pt);
    };
    harvest_due(1);
    std::size_t expanded = 0;
    for (std::size_t j = 1; j < max_steps_; ++j) {
      if (frontier_.size() < n_) {
        const std::size_t known = frontier_.size();
        for (std::size_t i = expanded; i < known; ++i)
          for (const auto& e : model_.rates().row(frontier_[i])) reach(e.col);
        expanded = known;
      }
      CSRL_COUNT("p3/discretisation/sweeps", 1);
      CSRL_COUNT("p3/discretisation/rows_swept", frontier_.size());
      CSRL_HIST_SCOPE("latency/p3_sweep");
      for_each_row([&](std::size_t s) { sweep_row(s); });
      std::swap(current_, next_);
      harvest_due(j + 1);
    }
    clear();
  }

  /// fn(s) for every frontier row, in parallel; each row has one caller.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    const bool full = frontier_.size() == n_;
    workers_.parallel_for(
        0, frontier_.size(), sweep_grain(width_ * lanes_),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) fn(full ? i : frontier_[i]);
        });
  }

  /// acc[b] = sum of lane b's cells (s, 0..cells), folded k ascending.
  void fold(std::size_t s, std::size_t cells, double* acc) const {
    for (std::size_t b = 0; b < lanes_; ++b) acc[b] = 0.0;
    for (std::size_t k = 0; k <= cells; ++k) {
      const double* c = current_->data() + (s * width_ + k) * lanes_;
      CSRL_PRAGMA_SIMD
      for (std::size_t b = 0; b < lanes_; ++b) acc[b] += c[b];
    }
  }

  std::span<const std::size_t> frontier() const { return frontier_; }
  bool reached(std::size_t s) const { return reached_[s] != 0; }

 private:
  void reach(std::size_t s) {
    if (reached_[s] != 0) return;
    reached_[s] = 1;
    frontier_.push_back(s);
  }

  // F^{j+1}(s, k) = F^j(s, k - rho(s)) stay(s)
  //               + sum_donors F^j(donor, k - shift) weight, per lane.
  void sweep_row(std::size_t s) {
    const std::size_t lanes = lanes_;
    const double* from = current_->data();
    double* row = next_->data() + s * width_ * lanes;
    std::fill(row, row + width_ * lanes, 0.0);
    const double stay = stay_[s];
    const std::size_t shift = rho_[s];
    for (std::size_t k = shift; k < width_; ++k) {
      const double* src = from + (s * width_ + (k - shift)) * lanes;
      CSRL_PRAGMA_SIMD
      for (std::size_t b = 0; b < lanes; ++b)
        row[k * lanes + b] = src[b] * stay;
    }
    for (const DonorTable::Donor& donor : donors_.of(s)) {
      for (std::size_t k = donor.shift; k < width_; ++k) {
        const double* src =
            from + (donor.state * width_ + (k - donor.shift)) * lanes;
        CSRL_PRAGMA_SIMD
        for (std::size_t b = 0; b < lanes; ++b)
          row[k * lanes + b] += src[b] * donor.weight;
      }
    }
  }

  void clear() {
    const std::size_t stride = width_ * lanes_;
    if (frontier_.size() == n_) {
      std::fill(current_->begin(), current_->end(), 0.0);
      std::fill(next_->begin(), next_->end(), 0.0);
    } else {
      for (std::size_t s : frontier_) {
        std::fill_n(current_->data() + s * stride, stride, 0.0);
        std::fill_n(next_->data() + s * stride, stride, 0.0);
      }
    }
    for (std::size_t s : frontier_) reached_[s] = 0;
    frontier_.clear();
  }

  const Mrm& model_;
  const double d_;
  const std::span<const LivePoint> live_;
  ThreadPool& workers_;
  const std::size_t n_;
  const std::vector<std::size_t> rho_;
  const std::vector<double> stay_;
  const DonorTable donors_;
  // One F array wide enough for the largest reward bound: lower columns
  // are bit-identical to a narrower run (see the header's argument).
  const std::size_t max_steps_;
  const std::size_t width_;
  std::size_t lanes_ = 1;
  Workspace workspace_;
  Workspace::LoopGuard guard_{&workspace_};
  Workspace::Lease current_lease_;
  Workspace::Lease next_lease_;
  std::vector<double>* current_;
  std::vector<double>* next_;
  std::vector<std::size_t> frontier_;
  std::vector<unsigned char> reached_;
};

}  // namespace

DiscretisationEngine::DiscretisationEngine(double step,
                                           std::shared_ptr<ThreadPool> pool,
                                           std::size_t rhs_block)
    : JointDistributionEngine(std::move(pool)),
      step_(step),
      rhs_block_(resolve_rhs_block(rhs_block)) {
  if (!(step > 0.0) || !std::isfinite(step))
    throw ModelError("DiscretisationEngine: step must be positive and finite");
}

std::string DiscretisationEngine::name() const {
  return "discretisation-d=" + std::to_string(step_);
}

JointDistribution DiscretisationEngine::joint_distribution(const Mrm& model,
                                                           double t,
                                                           double r) const {
  JointDistribution result;
  if (joint_distribution_trivial_case(model, t, r, result)) return result;

  CSRL_SPAN("p3/discretisation/joint_distribution");
  const std::size_t n = model.num_states();
  const double d = step_;

  // Integer reward rates and grid-aligned horizon/bound, as the paper
  // requires.
  std::vector<std::size_t> rho(n);
  for (std::size_t s = 0; s < n; ++s)
    rho[s] = as_natural(model.reward(s), 1e-9, "every reward rate");
  const std::size_t total_steps = as_natural(t / d, 1e-6, "t/d");
  const std::size_t reward_cells = as_natural(r / d, 1e-6, "r/d");
  if (total_steps == 0)
    throw ModelError("DiscretisationEngine: t must be at least one step d");

  for (std::size_t s = 0; s < n; ++s)
    if (model.chain().exit_rate(s) * d >= 1.0)
      throw ModelError(
          "DiscretisationEngine: step too coarse, E(s)*d must stay below 1 "
          "(state " + std::to_string(s) + ")");

  // F is stored row-major as F[s * width + k]; k ranges over 0..R.  Reward
  // indices beyond R can never come back under the bound (rewards are
  // non-negative), so the columns above R need not be tracked at all.
  const std::size_t width = reward_cells + 1;
  CSRL_GAUGE("p3/discretisation/time_steps", static_cast<double>(total_steps));
  CSRL_GAUGE("p3/discretisation/reward_cells", static_cast<double>(width));
  std::vector<double> current(n * width, 0.0);
  std::vector<double> next(n * width, 0.0);
  auto cell = [width](std::vector<double>& f, std::size_t s, std::size_t k)
      -> double& { return f[s * width + k]; };

  // First iterate F^1: one step of duration d from the initial
  // distribution; state s0 has earned reward index rho(s0).
  for (std::size_t s = 0; s < n; ++s) {
    const double mass = model.initial_distribution()[s];
    if (mass == 0.0) continue;
    if (rho[s] <= reward_cells) cell(current, s, rho[s]) += mass / d;
  }

  // Incoming transitions drive the second summand; iterate over the
  // transposed rate matrix so each new cell gathers its donors.  With
  // impulse rewards (the Section-6 extension, following the approach of
  // the later impulse-reward work) a firing additionally displaces the
  // reward index by iota/d, which must therefore sit on the grid.
  const CsrMatrix incoming = model.rates().transposed();
  struct Donor {
    std::size_t state;
    double weight;      // R(donor, s) * d
    std::size_t shift;  // rho(donor) + iota(donor, s)/d
  };
  std::vector<std::vector<Donor>> donors(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (const auto& e : incoming.row(s)) {
      std::size_t shift = rho[e.col];
      if (model.has_impulse_rewards()) {
        const double iota = model.impulse(e.col, s);
        if (iota > 0.0)
          shift += as_natural(iota / d, 1e-6, "every impulse divided by d");
      }
      donors[s].push_back({e.col, e.value * d, shift});
    }
  }

  // The sweep gathers into next[s * width ..] from current[] only, so the
  // states partition into independent chunks; per-state arithmetic is
  // unchanged, hence results are bit-identical at any thread count.  The
  // std::fill is unnecessary in the parallel form (every cell of next is
  // assigned before it is read) but each chunk clears its own slice to
  // keep the gather loop free of branches.
  ThreadPool& workers = pool();
  const std::size_t grain = sweep_grain(width);
  for (std::size_t j = 1; j < total_steps; ++j) {
    CSRL_COUNT("p3/discretisation/sweeps", 1);
    CSRL_COUNT("p3/discretisation/rows_swept", n);
    CSRL_HIST_SCOPE("latency/p3_sweep");
    workers.parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
      std::fill(next.begin() + static_cast<std::ptrdiff_t>(lo * width),
                next.begin() + static_cast<std::ptrdiff_t>(hi * width), 0.0);
      for (std::size_t s = lo; s < hi; ++s) {
        const double stay = 1.0 - model.chain().exit_rate(s) * d;
        const std::size_t shift = rho[s];
        for (std::size_t k = shift; k <= reward_cells; ++k)
          cell(next, s, k) = cell(current, s, k - shift) * stay;
        for (const Donor& donor : donors[s]) {
          for (std::size_t k = donor.shift; k <= reward_cells; ++k)
            cell(next, s, k) +=
                cell(current, donor.state, k - donor.shift) * donor.weight;
        }
      }
    });
    current.swap(next);
  }

  result.per_state.assign(n, 0.0);
  workers.parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= reward_cells; ++k) acc += cell(current, s, k);
      result.per_state[s] = acc * d;
    }
  });
  result.steps = total_steps;
  // The Tijms-Veldman error is O(d) with a model-dependent constant; the
  // slack below over-approximates it for the monotonicity cross-check (a
  // halved r that falls off the d-grid makes the recompute throw
  // ModelError, which validate_joint_result treats as "check skipped").
  if (CSRL_CONTRACTS_ACTIVE())
    validate_joint_result(
        name(), t, r, result.per_state,
        2.0 * d * (1.0 + model.chain().max_exit_rate()) * std::max(1.0, t),
        [&](double rr) { return joint_distribution(model, t, rr).per_state; });
  return result;
}

std::vector<JointDistribution> DiscretisationEngine::joint_distribution_grid(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards) const {
  const std::size_t num_rewards = rewards.size();
  std::vector<JointDistribution> grid(times.size() * num_rewards);
  std::vector<LivePoint> live;
  for (std::size_t i = 0; i < times.size(); ++i)
    for (std::size_t j = 0; j < num_rewards; ++j)
      if (!joint_distribution_trivial_case(model, times[i], rewards[j],
                                           grid[i * num_rewards + j]))
        live.push_back(live_point(i * num_rewards + j, times[i], rewards[j],
                                  step_));
  if (live.empty()) return grid;

  // One lane, seeded with the model's initial distribution; every live
  // point harvests the full per-state vector (rows the mass cannot have
  // reached keep their +0.0).
  CSRL_SPAN("p3/discretisation/joint_distribution_grid");
  const std::size_t n = model.num_states();
  LaneGroupSweep sweep(model, step_, live, 1, pool());
  sweep.begin_group(1);
  for (std::size_t s = 0; s < n; ++s)
    if (model.initial_distribution()[s] != 0.0)
      sweep.seed(s, 0, model.initial_distribution()[s]);
  sweep.run([&](const LivePoint& pt) {
    JointDistribution& out = grid[pt.slot];
    out.per_state.assign(n, 0.0);
    out.steps = pt.total_steps;
    sweep.for_each_row([&](std::size_t s) {
      double acc = 0.0;
      sweep.fold(s, pt.reward_cells, &acc);
      out.per_state[s] = acc * step_;
    });
  });

  CSRL_CONTRACT(
      [&] {
        std::vector<std::vector<double>> view;
        view.reserve(grid.size());
        for (const JointDistribution& g : grid) view.push_back(g.per_state);
        return joint_grid_monotone_in_reward(
            view, times.size(), rewards, monotone_slack(model, step_, times));
      }(),
      "DiscretisationEngine: grid results are not monotone in the reward "
      "bound");
  return grid;
}

std::vector<std::vector<double>>
DiscretisationEngine::joint_probability_all_starts_grid(
    const Mrm& model, std::span<const double> times,
    std::span<const double> rewards, const StateSet& target) const {
  const std::size_t n = model.num_states();
  if (target.size() != n)
    throw ModelError("joint_probability_all_starts: universe mismatch");
  CSRL_SPAN("p3/discretisation/all_starts_grid");
  const std::size_t num_rewards = rewards.size();
  std::vector<std::vector<double>> grid(times.size() * num_rewards,
                                        std::vector<double>(n, 0.0));

  // Triviality depends on (t, r) and the shared rates and rewards only, so
  // it is decided once per cell.  Trivial cells keep the per-start route of
  // the point loop; live cells go to the lane-group sweep.
  std::vector<LivePoint> live;
  std::vector<std::size_t> trivial;
  for (std::size_t i = 0; i < times.size(); ++i)
    for (std::size_t j = 0; j < num_rewards; ++j) {
      if (joint_distribution_is_trivial(model, times[i], rewards[j]))
        trivial.push_back(i * num_rewards + j);
      else
        live.push_back(live_point(i * num_rewards + j, times[i], rewards[j],
                                  step_));
    }
  if (!trivial.empty()) {
    for (std::size_t s = 0; s < n; ++s) {
      Mrm from_s(Ctmc(model.rates()), model.rewards(), model.labelling(), s);
      if (model.has_impulse_rewards())
        from_s = from_s.with_impulses(model.impulse_rewards());
      for (std::size_t slot : trivial) {
        JointDistribution out;
        joint_distribution_trivial_case(from_s, times[slot / num_rewards],
                                        rewards[slot % num_rewards], out);
        grid[slot][s] = out.probability_in(target);
      }
    }
  }
  if (live.empty()) return grid;

  // Lane b of the group starting at s0 carries start state s0 + b.  Each
  // live point folds only the target rows the group can have reached, in
  // ascending order: the order of per_state followed by probability_in.
  LaneGroupSweep sweep(model, step_, live, std::min(rhs_block_, n), pool());
  const std::vector<std::size_t> members = target.members();
  std::vector<std::size_t> rows;
  rows.reserve(members.size());
  for (std::size_t s0 = 0; s0 < n; s0 += rhs_block_) {
    const std::size_t lanes = std::min(rhs_block_, n - s0);
    sweep.begin_group(lanes);
    for (std::size_t b = 0; b < lanes; ++b) sweep.seed(s0 + b, b, 1.0);
    sweep.run([&](const LivePoint& pt) {
      rows.clear();
      if (sweep.frontier().size() < members.size()) {
        for (std::size_t s : sweep.frontier())
          if (target.contains(s)) rows.push_back(s);
        std::sort(rows.begin(), rows.end());
      } else {
        for (std::size_t s : members)
          if (sweep.reached(s)) rows.push_back(s);
      }
      double total[kMaxRhsBlock] = {};
      double acc[kMaxRhsBlock];
      for (std::size_t s : rows) {
        sweep.fold(s, pt.reward_cells, acc);
        for (std::size_t b = 0; b < lanes; ++b) {
          const double p = acc[b] * step_;  // rounded first, like per_state
          total[b] += p;
        }
      }
      for (std::size_t b = 0; b < lanes; ++b) grid[pt.slot][s0 + b] = total[b];
    });
  }

  // Checks Pr{Y <= r, X in target} per start state; the per-state
  // distributions behind it are never materialised on this path.
  CSRL_CONTRACT(
      joint_grid_monotone_in_reward(grid, times.size(), rewards,
                                    monotone_slack(model, step_, times)),
      "DiscretisationEngine: all-starts grid results are not monotone in the "
      "reward bound");
  return grid;
}

double DiscretisationEngine::interval_until(const Mrm& model,
                                            const StateSet& phi,
                                            const StateSet& psi, Interval time,
                                            Interval reward) const {
  const std::size_t n = model.num_states();
  if (phi.size() != n || psi.size() != n)
    throw ModelError("interval_until: universe size mismatch");
  if (!time.has_upper_bound() || !reward.has_upper_bound())
    throw ModelError(
        "interval_until: both upper bounds must be finite (unbounded "
        "dimensions are the P0/P1/P2 pipelines' job)");

  CSRL_SPAN("p3/discretisation/interval_until");

  const double d = step_;
  const std::vector<std::size_t> rho = reward_indices(model);
  const std::size_t t_hi = as_natural(time.hi / d, 1e-6, "t2/d");
  const std::size_t t_lo = as_natural(time.lo / d, 1e-6, "t1/d");
  const std::size_t r_hi = as_natural(reward.hi / d, 1e-6, "r2/d");
  const std::size_t r_lo = as_natural(reward.lo / d, 1e-6, "r1/d");
  for (std::size_t s = 0; s < n; ++s)
    if (model.chain().exit_rate(s) * d >= 1.0)
      throw ModelError(
          "interval_until: step too coarse, E(s)*d must stay below 1");
  const DonorTable donors(model, rho, d);

  // Mass classification helpers.  Both grid coordinates only grow along a
  // path, so "past either window" means the mass can never qualify.
  const auto in_windows = [&](std::size_t j, std::size_t k) {
    return j >= t_lo && j <= t_hi && k >= r_lo && k <= r_hi;
  };

  const std::size_t width = r_hi + 1;
  std::vector<double> current(n * width, 0.0);
  std::vector<double> next(n * width, 0.0);
  const auto cell = [width](std::vector<double>& f, std::size_t s,
                            std::size_t k) -> double& {
    return f[s * width + k];
  };

  double success = 0.0;  // accumulated probability mass (not density)

  // Harvest pass at grid instant j: satisfied mass leaves the grid, mass
  // stuck in states that cannot carry the path onward is dropped (fail).
  const auto classify = [&](std::vector<double>& f, std::size_t j) {
    for (std::size_t s = 0; s < n; ++s) {
      const bool is_psi = psi.contains(s);
      const bool is_phi = phi.contains(s);
      for (std::size_t k = 0; k <= r_hi; ++k) {
        double& mass = cell(f, s, k);
        if (mass == 0.0) continue;
        if (is_psi && in_windows(j, k)) {
          success += mass * d;
          mass = 0.0;
        } else if (!is_phi) {
          // Neither satisfied here nor able to continue: the paths die.
          mass = 0.0;
        }
      }
    }
  };

  // Grid instant 0: the initial distribution as densities (mass / d).
  for (std::size_t s = 0; s < n; ++s) {
    const double mass = model.initial_distribution()[s];
    if (mass > 0.0) cell(current, s, 0) += mass / d;
  }
  classify(current, 0);

  // Propagation parallelises exactly like joint_distribution's sweep (each
  // state's slice of `next` has one writer).  The classify pass stays
  // serial: it folds `success` in a fixed (s, k) order, and keeping that
  // fold sequential preserves bit-identical answers at every thread count.
  ThreadPool& workers = pool();
  const std::size_t grain = sweep_grain(width);
  for (std::size_t j = 1; j <= t_hi; ++j) {
    CSRL_COUNT("p3/discretisation/sweeps", 1);
    CSRL_COUNT("p3/discretisation/rows_swept", n);
    CSRL_HIST_SCOPE("latency/p3_sweep");
    workers.parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
      std::fill(next.begin() + static_cast<std::ptrdiff_t>(lo * width),
                next.begin() + static_cast<std::ptrdiff_t>(hi * width), 0.0);
      for (std::size_t s = lo; s < hi; ++s) {
        const double stay = 1.0 - model.chain().exit_rate(s) * d;
        const std::size_t shift = rho[s];
        for (std::size_t k = shift; k <= r_hi; ++k)
          cell(next, s, k) = cell(current, s, k - shift) * stay;
        for (const DonorTable::Donor& donor : donors.of(s))
          for (std::size_t k = donor.shift; k <= r_hi; ++k)
            cell(next, s, k) +=
                cell(current, donor.state, k - donor.shift) * donor.weight;
      }
    });
    current.swap(next);
    classify(current, j);
  }
  return std::min(success, 1.0);
}

}  // namespace csrl
