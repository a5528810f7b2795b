#include "core/solver.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace soda::core {
namespace {

media::BitrateLadder Ladder() { return media::YoutubeHfr4kLadder(); }

CostModelConfig BaseConfig(double gamma = 50.0) {
  CostModelConfig config;
  config.target_buffer_s = 12.0;
  config.max_buffer_s = 20.0;
  config.dt_s = 2.0;
  config.weights.beta = 25.0;
  config.weights.gamma = gamma;
  return config;
}

std::vector<double> Constant(double mbps, int k) {
  return std::vector<double>(static_cast<std::size_t>(k), mbps);
}

// Whether [anchor (only when has_prev), plan...] is non-decreasing or
// non-increasing.
bool IsMonotone(const std::vector<media::Rung>& plan, media::Rung anchor,
                bool has_prev) {
  bool non_decreasing = true;
  bool non_increasing = true;
  for (std::size_t i = has_prev ? 0 : 1; i < plan.size(); ++i) {
    const media::Rung before = i == 0 ? anchor : plan[i - 1];
    non_decreasing = non_decreasing && plan[i] >= before;
    non_increasing = non_increasing && plan[i] <= before;
  }
  return non_decreasing || non_increasing;
}

TEST(MonotonicSolver, RequiresPredictions) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const MonotonicSolver solver(model);
  EXPECT_THROW((void)solver.Solve({}, 10.0, 2), std::invalid_argument);
  const std::vector<double> bad = {5.0, -1.0};
  EXPECT_THROW((void)solver.Solve(bad, 10.0, 2), std::invalid_argument);
}

TEST(MonotonicSolver, PlansAreMonotone) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const MonotonicSolver solver(model);
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const double mbps = std::exp(rng.Uniform(std::log(0.5), std::log(120.0)));
    const double buffer = rng.Uniform(0.0, 20.0);
    const auto prev = static_cast<media::Rung>(rng.UniformInt(6));
    const PlanResult plan = solver.Solve(Constant(mbps, 5), buffer, prev);
    if (!plan.feasible) continue;
    EXPECT_TRUE(IsMonotone(plan.plan, prev, true))
        << "mbps=" << mbps << " buffer=" << buffer << " prev=" << prev;
  }
}

TEST(MonotonicSolver, SteadyStatePicksThroughputMatchedRung) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const MonotonicSolver solver(model);
  // Buffer at target, throughput exactly at a rung: stay there.
  const PlanResult plan = solver.Solve(Constant(12.0, 5), 12.0, 3);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.first_rung, 3);
}

TEST(MonotonicSolver, LowBufferBacksOff) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const MonotonicSolver solver(model);
  const PlanResult low = solver.Solve(Constant(12.0, 5), 2.0, 3);
  ASSERT_TRUE(low.feasible);
  EXPECT_LT(low.first_rung, 3);  // refill the buffer with a lower rung
}

TEST(MonotonicSolver, HighBufferMoreAggressive) {
  // The Fig. 5 property: at fixed throughput, the chosen rung is
  // non-decreasing in buffer level.
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const MonotonicSolver solver(model);
  media::Rung last = 0;
  for (double buffer = 1.0; buffer <= 19.0; buffer += 1.0) {
    const PlanResult plan = solver.Solve(Constant(10.0, 5), buffer, 2);
    ASSERT_TRUE(plan.feasible);
    EXPECT_GE(plan.first_rung, last);
    last = plan.first_rung;
  }
}

TEST(MonotonicSolver, MatchesBruteForceOnExhaustiveGrid) {
  // With a strong switching weight the monotone restriction is lossless on
  // a grid of situations (Theorem 4.3's regime).
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig(/*gamma=*/100.0));
  const MonotonicSolver monotonic(model);
  const BruteForceSolver brute(model);
  int mismatches = 0;
  int total = 0;
  for (double mbps : {1.0, 3.0, 6.0, 10.0, 20.0, 50.0}) {
    for (double buffer : {2.0, 6.0, 10.0, 14.0, 18.0}) {
      for (media::Rung prev = 0; prev < 6; ++prev) {
        const auto predictions = Constant(mbps, 4);
        const PlanResult a = monotonic.Solve(predictions, buffer, prev);
        const PlanResult b = brute.Solve(predictions, buffer, prev);
        ASSERT_EQ(a.feasible, b.feasible);
        if (!a.feasible) continue;
        ++total;
        if (a.first_rung != b.first_rung) ++mismatches;
        // The monotone objective can never beat the brute force optimum.
        EXPECT_GE(a.objective, b.objective - 1e-9);
      }
    }
  }
  EXPECT_GT(total, 100);
  EXPECT_LE(static_cast<double>(mismatches) / total, 0.05);
}

TEST(MonotonicSolver, PolynomialSequenceCount) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  // The paper's enumeration claim is about the raw monotone search space, so
  // measure it with branch-and-bound pruning disabled.
  SolverConfig unpruned;
  unpruned.enable_pruning = false;
  const MonotonicSolver monotonic(model, unpruned);
  const BruteForceSolver brute(model, unpruned);
  const auto predictions = Constant(10.0, 5);
  const PlanResult a = monotonic.Solve(predictions, 10.0, 2);
  const PlanResult b = brute.Solve(predictions, 10.0, 2);
  // The paper's claim: about 200 sequences vs |R|^K = 7776.
  EXPECT_LT(a.sequences_evaluated, 600);
  EXPECT_GT(a.sequences_evaluated, 10);
  EXPECT_GT(b.sequences_evaluated, 1000);
  EXPECT_LT(a.sequences_evaluated, b.sequences_evaluated / 4);

  // Pruning (the default) keeps the same plan while evaluating strictly
  // fewer sequences on this instance.
  const MonotonicSolver pruned(model);
  const PlanResult p = pruned.Solve(predictions, 10.0, 2);
  ASSERT_TRUE(p.feasible);
  EXPECT_EQ(p.first_rung, a.first_rung);
  EXPECT_EQ(p.objective, a.objective);
  EXPECT_EQ(p.plan, a.plan);
  EXPECT_LT(p.sequences_evaluated, a.sequences_evaluated);
}

TEST(MonotonicSolver, HardConstraintsRejectOverflow) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  SolverConfig hard;
  hard.hard_buffer_constraints = true;
  const MonotonicSolver solver(model, hard);
  // Buffer nearly full and enormous throughput: even the top rung would
  // overflow -> no feasible plan (the blank Fig. 5 region).
  const PlanResult plan = solver.Solve(Constant(3000.0, 3), 19.9, 5);
  EXPECT_FALSE(plan.feasible);
}

TEST(MonotonicSolver, HardConstraintsRejectUnderflow) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  SolverConfig hard;
  hard.hard_buffer_constraints = true;
  const MonotonicSolver solver(model, hard);
  // Empty buffer and tiny throughput: every rung drains below zero.
  const PlanResult plan = solver.Solve(Constant(0.05, 3), 0.0, 0);
  EXPECT_FALSE(plan.feasible);
}

TEST(MonotonicSolver, SoftConstraintsAlwaysFeasible) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const MonotonicSolver solver(model);  // soft by default
  EXPECT_TRUE(solver.Solve(Constant(3000.0, 3), 19.9, 5).feasible);
  EXPECT_TRUE(solver.Solve(Constant(0.05, 3), 0.0, 0).feasible);
}

TEST(MonotonicSolver, NoPrevAnchorsAtThroughput) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const MonotonicSolver solver(model);
  const PlanResult plan = solver.Solve(Constant(12.0, 5), 12.0, -1);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.first_rung, 3);  // 12 Mb/s rung
}

TEST(MonotonicSolver, ObjectiveMatchesEvaluatePlan) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const MonotonicSolver solver(model);
  const auto predictions = Constant(9.0, 4);
  const PlanResult plan = solver.Solve(predictions, 8.0, 2);
  ASSERT_TRUE(plan.feasible);
  const double replayed =
      EvaluatePlan(model, predictions, plan.plan, 8.0, 2, false);
  EXPECT_NEAR(plan.objective, replayed, 1e-9);
}

TEST(BruteForce, GuardsSearchSpace) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const BruteForceSolver solver(model);
  EXPECT_THROW((void)solver.Solve(Constant(10.0, 12), 10.0, 2),
               std::invalid_argument);
}

TEST(BruteForce, FindsGlobalOptimumOnTinyInstance) {
  // 2-rung ladder, K=2: enumerate by hand.
  const media::BitrateLadder ladder({2.0, 4.0});
  CostModelConfig config;
  config.target_buffer_s = 6.0;
  config.max_buffer_s = 10.0;
  config.dt_s = 2.0;
  const CostModel model(ladder, config);
  SolverConfig unpruned;
  unpruned.enable_pruning = false;
  const BruteForceSolver solver(model, unpruned);
  const auto predictions = Constant(3.0, 2);
  const PlanResult plan = solver.Solve(predictions, 6.0, 0);
  ASSERT_TRUE(plan.feasible);
  double best = 1e18;
  media::Rung best_first = -1;
  for (media::Rung r1 = 0; r1 < 2; ++r1) {
    for (media::Rung r2 = 0; r2 < 2; ++r2) {
      const std::vector<media::Rung> candidate = {r1, r2};
      const double cost =
          EvaluatePlan(model, predictions, candidate, 6.0, 0, false);
      if (cost < best) {
        best = cost;
        best_first = r1;
      }
    }
  }
  EXPECT_EQ(plan.first_rung, best_first);
  EXPECT_NEAR(plan.objective, best, 1e-9);
  EXPECT_EQ(plan.sequences_evaluated, 4);
}

TEST(EvaluatePlanFn, InfeasibleUnderHardConstraints) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const std::vector<double> predictions = {0.05, 0.05};
  const std::vector<media::Rung> plan = {5, 5};
  EXPECT_TRUE(std::isinf(
      EvaluatePlan(model, predictions, plan, 0.5, 5, true)));
  EXPECT_TRUE(std::isfinite(
      EvaluatePlan(model, predictions, plan, 0.5, 5, false)));
}

TEST(EvaluatePlanFn, LengthMismatchThrows) {
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const std::vector<double> predictions = {5.0, 5.0};
  const std::vector<media::Rung> plan = {1};
  EXPECT_THROW((void)EvaluatePlan(model, predictions, plan, 5.0, 1, false),
               std::invalid_argument);
}

TEST(Solvers, PerIntervalPredictionsUsed) {
  // A cliff in the predictions should make the planner more conservative
  // than a uniformly high forecast.
  const auto ladder = Ladder();
  const CostModel model(ladder, BaseConfig());
  const MonotonicSolver solver(model);
  const std::vector<double> cliff = {20.0, 2.0, 2.0, 2.0, 2.0};
  const PlanResult with_cliff = solver.Solve(cliff, 8.0, 3);
  const PlanResult uniform = solver.Solve(Constant(20.0, 5), 8.0, 3);
  ASSERT_TRUE(with_cliff.feasible);
  ASSERT_TRUE(uniform.feasible);
  EXPECT_LE(with_cliff.first_rung, uniform.first_rung);
}

}  // namespace
}  // namespace soda::core
