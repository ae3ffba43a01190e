#include "core/reward_ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "ctmc/foxglynn.hpp"
#include "logic/parser.hpp"
#include "matrix/vector_ops.hpp"
#include "models/cluster.hpp"
#include "models/synthetic.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace csrl {
namespace {

Mrm constant_reward_model(double rho) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  return Mrm(Ctmc(b.build()), {rho, rho}, Labelling(2), 0);
}

TEST(ExpectedAccumulatedReward, ConstantRewardIsRhoTimesT) {
  // If every state earns rho, then Y_t = rho * t deterministically.
  const Mrm m = constant_reward_model(2.5);
  for (double t : {0.5, 3.0, 10.0})
    EXPECT_NEAR(expected_accumulated_reward(m, t), 2.5 * t, 1e-8) << t;
}

TEST(ExpectedAccumulatedReward, ZeroAtTimeZero) {
  const Mrm m = constant_reward_model(1.0);
  EXPECT_DOUBLE_EQ(expected_accumulated_reward(m, 0.0), 0.0);
}

TEST(ExpectedAccumulatedReward, TwoStateClosedForm) {
  // 0 (reward 1) -> 1 (reward 0, absorbing) at rate a:
  // E[Y_t] = E[min(T, t)] = (1 - e^{-a t}) / a.
  const double a = 2.0;
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  const Mrm m(Ctmc(b.build()), {1.0, 0.0}, Labelling(2), 0);
  for (double t : {0.3, 1.0, 5.0})
    EXPECT_NEAR(expected_accumulated_reward(m, t), (1.0 - std::exp(-a * t)) / a,
                1e-8)
        << t;
}

TEST(ExpectedAccumulatedReward, MonotoneAndConcaveForDyingRewards) {
  const Mrm m = pure_death_mrm(4, 1.0);
  double last = 0.0;
  for (double t : {0.5, 1.0, 2.0, 4.0}) {
    const double v = expected_accumulated_reward(m, t);
    EXPECT_GT(v, last);
    last = v;
  }
  // Total reward is bounded by E[sum of sojourn rewards to absorption].
  EXPECT_LT(last, 3.0 / 1.0 + 2.0 / 1.0 + 1.0 / 1.0 + 1e-6);
}

TEST(ExpectedAccumulatedReward, NegativeTimeThrows) {
  const Mrm m = constant_reward_model(1.0);
  EXPECT_THROW((void)expected_accumulated_reward(m, -1.0), ModelError);
}

TEST(ExpectedInstantaneousReward, TracksTransientDistribution) {
  // 0 (reward 1) -> 1 (reward 0) at rate a: E[rho(X_t)] = e^{-a t}.
  const double a = 1.5;
  CsrBuilder b(2, 2);
  b.add(0, 1, a);
  const Mrm m(Ctmc(b.build()), {1.0, 0.0}, Labelling(2), 0);
  for (double t : {0.0, 0.5, 2.0})
    EXPECT_NEAR(expected_instantaneous_reward(m, t), std::exp(-a * t), 1e-9)
        << t;
}

TEST(ExpectedInstantaneousReward, DerivativeOfAccumulatedReward) {
  // d/dt E[Y_t] = E[rho(X_t)]: check by finite differences.
  const Mrm m = birth_death_mrm(5, 1.0, 2.0);
  const double t = 1.0, h = 1e-4;
  const double derivative = (expected_accumulated_reward(m, t + h) -
                             expected_accumulated_reward(m, t - h)) /
                            (2.0 * h);
  EXPECT_NEAR(derivative, expected_instantaneous_reward(m, t), 1e-5);
}

// -- E_s[Y_t] on the shared series loop ---------------------------------

/// The all-starts loop E_s[Y_t] ran before it moved onto the shared
/// series loop, kept as the reference: tails Pr{N > n} from the
/// truncated window, skipped where not positive, one SpMV per step.
std::vector<double> reference_accumulated_all_starts(const Mrm& model,
                                                     double t,
                                                     double epsilon) {
  const Ctmc& chain = model.chain();
  const double lambda = chain.max_exit_rate();
  const CsrMatrix p = chain.uniformised_dtmc(lambda);
  const PoissonWeights weights = poisson_weights(lambda * t, epsilon);
  double tail = weights.total;
  std::vector<double> v = effective_reward_rates(model);
  std::vector<double> scratch(v.size(), 0.0);
  std::vector<double> result(v.size(), 0.0);
  for (std::size_t step = 0; step <= weights.right; ++step) {
    tail -= weights.weight(step);
    if (tail > 0.0) axpy(tail, v, result);
    if (step < weights.right) {
      p.multiply(v, scratch);
      v.swap(scratch);
    }
  }
  scale(result, 1.0 / lambda);
  return result;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ExpectedAccumulatedReward, AllStartsWithinStatedBoundOfReferenceLoop) {
  ClusterParams params;
  params.workstations_per_side = 8;
  struct Case {
    std::string name;
    Mrm model;
    std::vector<double> times;
  };
  std::vector<Case> cases;
  cases.push_back({"cluster8", build_cluster_mrm(params), {0.5, 24.0, 168.0}});
  for (std::uint64_t seed : {1u, 3u, 4u})
    cases.push_back({"random" + std::to_string(seed),
                     random_mrm(seed, 40, 0.08, 5.0, 4), {0.5, 30.0, 500.0}});

  std::size_t cutoff_runs = 0;
  for (const Case& c : cases) {
    const std::vector<double> rates = effective_reward_rates(c.model);
    const double rho_max = *std::max_element(rates.begin(), rates.end());
    const double lambda = c.model.chain().max_exit_rate();
    for (double t : c.times) {
      TransientOptions options;
      const std::vector<double> reference =
          reference_accumulated_all_starts(c.model, t, options.epsilon);
      const std::vector<double> got =
          expected_accumulated_reward_all_starts(c.model, t, options);
      // The bound of transient_backward_cumulative: truncation plus the
      // steady-state cutoff fold.
      const double bound = rho_max * t * options.epsilon +
                           options.steady_state_tolerance * lambda * t * t / 2;
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t s = 0; s < got.size(); ++s)
        EXPECT_LE(std::abs(got[s] - reference[s]), bound)
            << c.name << " t=" << t << " state " << s;
      if (!same_bits(got, reference)) ++cutoff_runs;

      // Without the cutoff the tail-window series is the reference loop
      // bit for bit.
      options.steady_state_detection = false;
      EXPECT_TRUE(same_bits(
          expected_accumulated_reward_all_starts(c.model, t, options),
          reference))
          << c.name << " t=" << t;
    }
  }
  // Long horizons do reach the cutoff; the bound above is what covers them.
  RecordProperty("runs_off_the_reference_bits", static_cast<int>(cutoff_runs));
  EXPECT_GT(cutoff_runs, 0u);
}

TEST(ExpectedAccumulatedReward, ScalarIsDotOfAllStarts) {
  // All-absorbing chain: nothing moves, so E_s[Y_t] = rho(s) t exactly.
  const Mrm frozen(Ctmc(CsrMatrix(3, 3)), {1.0, 2.0, 3.5}, Labelling(3),
                   std::vector<double>{0.25, 0.5, 0.25});
  const std::vector<double> still =
      expected_accumulated_reward_all_starts(frozen, 4.0);
  EXPECT_EQ(still, (std::vector<double>{4.0, 8.0, 14.0}));
  EXPECT_EQ(expected_accumulated_reward(frozen, 4.0),
            dot(frozen.initial_distribution(), still));
  EXPECT_EQ(expected_accumulated_reward(frozen, 4.0), 8.5);

  // Impulses enter through the effective reward rates on both paths.
  CsrBuilder b(3, 3);
  b.add(0, 1, 2.0);
  b.add(1, 2, 1.0);
  b.add(2, 0, 0.5);
  CsrBuilder impulses(3, 3);
  impulses.add(0, 1, 1.5);
  impulses.add(2, 0, 4.0);
  const Mrm kicked =
      Mrm(Ctmc(b.build()), {1.0, 0.0, 2.0}, Labelling(3),
          std::vector<double>{0.5, 0.25, 0.25})
          .with_impulses(impulses.build());
  for (double t : {0.0, 0.7, 12.0})
    EXPECT_EQ(expected_accumulated_reward(kicked, t),
              dot(kicked.initial_distribution(),
                  expected_accumulated_reward_all_starts(kicked, t)))
        << t;
}

#ifndef CSRL_OBS_DISABLED
TEST(ExpectedAccumulatedReward, ReportedCheckRunsTheSeriesLoop) {
  CheckOptions options;
  options.report = true;
  const Mrm model = tandem_queue_mrm(3, 3, 1.0, 1.5, 1.2);
  const Checker checker(model, options);
  const CheckResult result = checker.check(*parse_formula("R=? [ C<=5 ]"));
  ASSERT_TRUE(result.report.has_value());
  EXPECT_GT(result.report->metrics.counter("uniformisation/steps"), 0u);
  bool saw_span = false;
  for (const obs::SpanAggregate& span : result.report->spans)
    if (span.path.find("ctmc/transient/cumulative") != std::string::npos)
      saw_span = true;
  EXPECT_TRUE(saw_span);
}
#endif

}  // namespace
}  // namespace csrl
