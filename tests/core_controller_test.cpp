#include "core/soda_controller.hpp"

#include <gtest/gtest.h>

#include "abr/hyb.hpp"
#include "core/decision_map.hpp"
#include "net/generators.hpp"
#include "predict/ema.hpp"
#include "sim/session.hpp"
#include "test_helpers.hpp"

namespace soda::core {
namespace {

using soda::testing::ContextFixture;

media::BitrateLadder Ladder() { return media::YoutubeHfr4kLadder(); }

TEST(SodaController, ConfigValidation) {
  SodaConfig bad_horizon;
  bad_horizon.horizon = 0;
  EXPECT_THROW((SodaController{bad_horizon}), std::invalid_argument);
  SodaConfig bad_target;
  bad_target.target_fraction = 1.5;
  EXPECT_THROW((SodaController{bad_target}), std::invalid_argument);
}

TEST(SodaController, SteadyStateHoldsRung) {
  ContextFixture fx(Ladder());
  SodaController soda;
  fx.SetThroughput(12.0);
  EXPECT_EQ(soda.ChooseRung(fx.Make(12.0, 3)), 3);
}

TEST(SodaController, ThroughputCapLimitsFirstDecision) {
  ContextFixture fx(Ladder());
  SodaController soda;
  fx.SetThroughput(8.0);
  // Below the target buffer the section 5.1 cap engages: the committed
  // rung can be at most min{r >= 8} = 12 Mb/s (rung 3), whatever the
  // planner wants.
  const media::Rung capped = soda.ChooseRung(fx.Make(5.0, 5));
  EXPECT_LE(capped, 3);
  // Above the target the cap is relaxed (overrunning one interval is
  // harmless with an ample buffer) and the planner may hold a high rung.
  const media::Rung uncapped = soda.ChooseRung(fx.Make(19.0, 5));
  EXPECT_GE(uncapped, capped);
}

TEST(SodaController, CapCanBeDisabled) {
  ContextFixture fx(Ladder());
  // Extremely sticky weights so the planner holds the previous (top) rung;
  // then the only difference between the two controllers is the cap.
  SodaConfig sticky;
  sticky.weights.gamma = 5000.0;
  sticky.weights.kappa = 50.0;
  sticky.weights.beta = 0.1;
  sticky.weights.barrier = 0.0;
  SodaConfig sticky_uncapped = sticky;
  sticky_uncapped.throughput_cap = false;
  SodaController capped(sticky);
  SodaController uncapped(sticky_uncapped);
  fx.SetThroughput(8.0);
  // Low buffer: the cap binds (min{r >= 8} = rung 3).
  EXPECT_LE(capped.ChooseRung(fx.Make(5.0, 5)), 3);
  EXPECT_EQ(uncapped.ChooseRung(fx.Make(5.0, 5)), 5);
}

TEST(SodaController, DecisionMonotoneInBufferPureObjective) {
  // Under the pure Equation-2 objective (no fixed per-switch cost, no
  // terminal tail) the chosen rung is non-decreasing in buffer level (the
  // Fig. 5 structure).
  ContextFixture fx(Ladder());
  SodaConfig pure;
  pure.weights.kappa = 0.0;
  pure.tail_intervals = 0.0;
  SodaController soda(pure);
  fx.SetThroughput(10.0);
  media::Rung last = 0;
  for (double buffer = 0.5; buffer <= 19.5; buffer += 0.5) {
    const media::Rung r = soda.ChooseRung(fx.Make(buffer, 2));
    EXPECT_GE(r, last);
    last = r;
  }
}

TEST(SodaController, DecisionApproximatelyMonotoneWithDefaults) {
  // The default fixed per-switch cost introduces hysteresis plateaus, so
  // exact monotonicity can break by at most one rung near thresholds.
  ContextFixture fx(Ladder());
  SodaController soda;
  fx.SetThroughput(10.0);
  media::Rung last = 0;
  for (double buffer = 0.5; buffer <= 19.5; buffer += 0.5) {
    const media::Rung r = soda.ChooseRung(fx.Make(buffer, 2));
    EXPECT_GE(r, last - 1);
    last = std::max(last, r);
  }
}

TEST(SodaController, LowBufferDefendsAgainstRebuffer) {
  ContextFixture fx(Ladder());
  SodaController soda;
  fx.SetThroughput(10.0);
  // From a near-empty buffer at a high previous rung, SODA drops to a
  // refilling rung: one whose download rate comfortably exceeds real time
  // (bitrate well under the 10 Mb/s forecast).
  const media::Rung r = soda.ChooseRung(fx.Make(0.5, 4));
  EXPECT_LE(r, 1);
  // And it never drops below what is needed: with a healthy buffer it does
  // not panic.
  EXPECT_GE(soda.ChooseRung(fx.Make(12.0, 4)), 2);
}

TEST(SodaController, HorizonLimitedToTenSeconds) {
  // With 4-second segments the configured horizon of 5 must be clamped to
  // floor(10 / 4) = 2 intervals.
  ContextFixture fx(Ladder(), /*segment_seconds=*/4.0);
  SodaConfig config;
  config.horizon = 5;
  SodaController soda(config);
  fx.SetThroughput(10.0);
  (void)soda.ChooseRung(fx.Make(10.0, 2));
  // A 2-step monotone search over 6 rungs evaluates at most
  // 2 * C(7,2) = 42 sequences (up and down).
  EXPECT_LE(soda.LastSequencesEvaluated(), 60);
}

TEST(SodaController, SequenceBudgetMatchesPaperClaim) {
  ContextFixture fx(Ladder());
  SodaController soda;
  fx.SetThroughput(10.0);
  const abr::Context context = fx.Make(10.0, 2);
  (void)soda.ChooseRung(context);

  // Section 5.3: "at most around 200 bitrate sequences". The sentence is
  // about the size of the monotone search space, so count it on the same
  // decision with a solver in the controller's configuration, pruning off.
  const SodaConfig& config = soda.Config();
  const double dt = context.SegmentSeconds();
  CostModelConfig model_config;
  model_config.weights = config.weights;
  model_config.dt_s = dt;
  model_config.max_buffer_s = context.max_buffer_s;
  model_config.target_buffer_s = config.target_buffer_s.value_or(
      config.target_fraction * context.max_buffer_s);
  model_config.distortion = config.distortion;
  const CostModel model(context.Ladder(), model_config);
  SolverConfig unpruned;
  unpruned.hard_buffer_constraints = config.hard_buffer_constraints;
  unpruned.tail_intervals = config.tail_intervals;
  unpruned.enable_pruning = false;
  const std::vector<double> predictions = context.predictor->PredictHorizon(
      context.now_s, ClampedSodaHorizon(config, dt), dt);
  const PlanResult space = MonotonicSolver(model, unpruned)
                               .Solve(predictions, context.buffer_s,
                                      context.prev_rung);
  EXPECT_GT(space.sequences_evaluated, 20);
  EXPECT_LE(space.sequences_evaluated, 600);
  // Pruning only ever shrinks the work below the size of the space.
  EXPECT_LE(soda.LastSequencesEvaluated(), space.sequences_evaluated);
}

TEST(SodaController, AdaptsModelToLadderChange) {
  SodaController soda;
  ContextFixture youtube(Ladder());
  youtube.SetThroughput(10.0);
  (void)soda.ChooseRung(youtube.Make(10.0, 2));
  // Same controller instance now sees the production ladder.
  ContextFixture prime(media::PrimeVideoProductionLadder());
  prime.SetThroughput(3.0);
  const media::Rung r = soda.ChooseRung(prime.Make(12.0, 5));
  EXPECT_TRUE(media::PrimeVideoProductionLadder().IsValidRung(r));
}

TEST(SodaController, SwitchingWeightReducesSwitchesEndToEnd) {
  // Run the same volatile session with gamma small vs large and count
  // switches: the smoothness knob must work end to end.
  Rng rng(21);
  net::RandomWalkConfig walk;
  walk.mean_mbps = 15.0;
  walk.stationary_rel_std = 0.8;
  walk.duration_s = 400.0;
  const auto trace = net::RandomWalkTrace(walk, rng);
  const media::VideoModel video(Ladder(), {.segment_seconds = 2.0});
  sim::SimConfig sim_config;
  sim_config.rtt_s = 0.0;

  auto run_with_gamma = [&](double gamma) {
    SodaConfig config;
    config.weights.gamma = gamma;
    SodaController controller(config);
    predict::EmaPredictor predictor;
    const sim::SessionLog log =
        sim::RunSession(trace, controller, predictor, video, sim_config);
    return log.SwitchCount();
  };
  const int switchy = run_with_gamma(0.1);
  const int smooth = run_with_gamma(500.0);
  EXPECT_LT(smooth, switchy);
}

TEST(DecisionMap, ShapeMatchesFig5) {
  CostModelConfig mc;
  mc.target_buffer_s = 12.0;
  mc.max_buffer_s = 20.0;
  mc.dt_s = 2.0;
  const auto ladder = Ladder();
  const CostModel model(ladder, mc);
  DecisionMapConfig config;
  config.buffer_points = 20;
  config.throughput_points = 24;
  const DecisionMap map = ComputeDecisionMap(model, config);
  ASSERT_EQ(map.grid.size(), 24u);
  ASSERT_EQ(map.grid[0].size(), 20u);

  // 1) Rung is non-decreasing in throughput at mid buffer.
  const std::size_t mid_buffer = 10;
  double last = -1.0;
  for (std::size_t t = 0; t < map.grid.size(); ++t) {
    const double v = map.grid[t][mid_buffer];
    if (std::isnan(v)) continue;
    EXPECT_GE(v + 1e-9, last);
    last = v;
  }

  // 2) The blank (no-download) region exists at high throughput + full
  // buffer and only there.
  bool any_nan = false;
  for (std::size_t t = 0; t < map.grid.size(); ++t) {
    for (std::size_t b = 0; b < map.grid[t].size(); ++b) {
      if (std::isnan(map.grid[t][b])) {
        any_nan = true;
        // NaN only plausible at nearly full buffer.
        EXPECT_GT(map.buffer_axis_s[b], 0.7 * mc.max_buffer_s);
      }
    }
  }
  EXPECT_TRUE(any_nan);
}

TEST(DecisionMap, ParallelFillIsBitIdentical) {
  CostModelConfig mc;
  mc.target_buffer_s = 12.0;
  mc.max_buffer_s = 20.0;
  mc.dt_s = 2.0;
  // CostModel stores a pointer to the ladder: it must outlive the model
  // (passing the Ladder() temporary directly would dangle).
  const auto ladder = Ladder();
  const CostModel model(ladder, mc);
  DecisionMapConfig config;
  config.buffer_points = 16;
  config.throughput_points = 18;
  config.threads = 1;
  const DecisionMap serial = ComputeDecisionMap(model, config);
  for (const int threads : {2, 4, 0}) {
    config.threads = threads;
    const DecisionMap parallel = ComputeDecisionMap(model, config);
    ASSERT_EQ(parallel.grid.size(), serial.grid.size());
    for (std::size_t t = 0; t < serial.grid.size(); ++t) {
      for (std::size_t b = 0; b < serial.grid[t].size(); ++b) {
        const double want = serial.grid[t][b];
        const double got = parallel.grid[t][b];
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got)) << "t=" << t << " b=" << b;
        } else {
          EXPECT_EQ(got, want) << "t=" << t << " b=" << b;
        }
      }
    }
  }
}

TEST(DecisionMap, ValidatesConfig) {
  CostModelConfig mc;
  mc.target_buffer_s = 12.0;
  mc.max_buffer_s = 20.0;
  const auto ladder = Ladder();
  const CostModel model(ladder, mc);
  DecisionMapConfig bad;
  bad.buffer_points = 1;
  EXPECT_THROW((void)ComputeDecisionMap(model, bad), std::invalid_argument);
}

TEST(SodaController, EndToEndSwitchesLessThanHyb) {
  // Smoke test of the headline property: on a volatile trace SODA switches
  // far less than the buffer-greedy HYB heuristic (the paper measures HYB
  // switching up to 215% more, i.e. > 3x).
  Rng rng(5);
  net::RandomWalkConfig walk;
  walk.mean_mbps = 20.0;
  walk.stationary_rel_std = 0.8;
  walk.reversion_rate = 0.15;
  walk.duration_s = 600.0;
  const auto trace = net::RandomWalkTrace(walk, rng);
  const media::VideoModel video(Ladder(), {.segment_seconds = 2.0});
  sim::SimConfig sim_config;

  SodaController soda;
  predict::EmaPredictor soda_predictor;
  const sim::SessionLog soda_log =
      sim::RunSession(trace, soda, soda_predictor, video, sim_config);

  abr::HybController hyb;
  predict::EmaPredictor hyb_predictor;
  const sim::SessionLog hyb_log =
      sim::RunSession(trace, hyb, hyb_predictor, video, sim_config);

  ASSERT_GT(soda_log.SegmentCount(), 100);
  ASSERT_GT(hyb_log.SegmentCount(), 100);
  const double soda_switch_rate =
      static_cast<double>(soda_log.SwitchCount()) / soda_log.SegmentCount();
  const double hyb_switch_rate =
      static_cast<double>(hyb_log.SwitchCount()) / hyb_log.SegmentCount();
  EXPECT_LT(soda_switch_rate, hyb_switch_rate * 0.6);
}

}  // namespace
}  // namespace soda::core
