#include <memory>
#include <ostream>

#include <gtest/gtest.h>

#include "net/generators.hpp"
#include "predict/ema.hpp"
#include "predict/fixed.hpp"
#include "predict/harmonic_mean.hpp"
#include "predict/moving_average.hpp"
#include "predict/oracle.hpp"
#include "predict/profiler.hpp"
#include "predict/robust_discount.hpp"
#include "predict/sliding_window.hpp"

namespace soda::predict {
namespace {

DownloadObservation Obs(double start, double duration, double mbps) {
  return {start, duration, mbps * duration};
}

TEST(Observation, MeasuredMbps) {
  EXPECT_DOUBLE_EQ(Obs(0, 2.0, 5.0).MeasuredMbps(), 5.0);
  const DownloadObservation stalled{0, 0.0, 3.0};
  EXPECT_DOUBLE_EQ(stalled.MeasuredMbps(), 0.0);
}

// --- Generic interface contracts, parameterized over all predictors. ---

using Factory = PredictorPtr (*)();

PredictorPtr MakeMa() { return std::make_unique<MovingAveragePredictor>(5); }
PredictorPtr MakeEma() { return std::make_unique<EmaPredictor>(); }
PredictorPtr MakeHm() { return std::make_unique<HarmonicMeanPredictor>(5); }
PredictorPtr MakeSw() { return std::make_unique<SlidingWindowPredictor>(10.0); }
PredictorPtr MakeRobust() {
  return std::make_unique<RobustDiscountPredictor>(MakeEma(), 5);
}

// gtest prints `id` for the case, and ctest names each case by what gtest
// prints. A bare factory pointer would print as an address that moves with
// every build; fixed IDs keep the ctest names comparable from build to
// build. The strings are the addresses the cases were listed under before,
// so earlier test lists still name them.
struct PredictorCase {
  const char* id;
  Factory make;
};

void PrintTo(const PredictorCase& c, std::ostream* os) { *os << c.id; }

class PredictorContractTest : public ::testing::TestWithParam<PredictorCase> {
};

TEST_P(PredictorContractTest, ColdStartIsPositive) {
  const PredictorPtr p = GetParam().make();
  const auto forecast = p->PredictHorizon(0.0, 3, 2.0);
  ASSERT_EQ(forecast.size(), 3u);
  for (const double v : forecast) EXPECT_GT(v, 0.0);
}

TEST_P(PredictorContractTest, ConvergesToConstantInput) {
  const PredictorPtr p = GetParam().make();
  for (int i = 0; i < 50; ++i) {
    p->Observe(Obs(i * 2.0, 2.0, 8.0));
  }
  EXPECT_NEAR(p->PredictOne(100.0, 2.0), 8.0, 0.5);
}

TEST_P(PredictorContractTest, ResetClearsHistory) {
  const PredictorPtr p = GetParam().make();
  for (int i = 0; i < 20; ++i) p->Observe(Obs(i * 2.0, 2.0, 50.0));
  p->Reset();
  // After reset the forecast returns to the cold-start default.
  EXPECT_NEAR(p->PredictOne(0.0, 2.0), kDefaultColdStartMbps, 1e-9);
}

TEST_P(PredictorContractTest, IgnoresZeroThroughputSamples) {
  const PredictorPtr p = GetParam().make();
  p->Observe(Obs(0.0, 2.0, 4.0));
  p->Observe(DownloadObservation{2.0, 0.0, 0.0});
  EXPECT_GT(p->PredictOne(4.0, 2.0), 0.0);
}

TEST_P(PredictorContractTest, HorizonIsFlatForHistoryPredictors) {
  const PredictorPtr p = GetParam().make();
  for (int i = 0; i < 10; ++i) p->Observe(Obs(i * 2.0, 2.0, 6.0));
  const auto forecast = p->PredictHorizon(20.0, 5, 2.0);
  for (std::size_t k = 1; k < forecast.size(); ++k) {
    EXPECT_DOUBLE_EQ(forecast[k], forecast[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPredictors, PredictorContractTest,
                         ::testing::Values(
                             PredictorCase{"0x55fe3e4a3f00", &MakeMa},
                             PredictorCase{"0x55fe3e4a4de0", &MakeEma},
                             PredictorCase{"0x55fe3e4a3ec0", &MakeHm},
                             PredictorCase{"0x55fe3e4a3e80", &MakeSw},
                             PredictorCase{"0x55fe3e4a5b30", &MakeRobust}));

// --- Predictor-specific behavior. ---

TEST(MovingAverage, WindowEviction) {
  MovingAveragePredictor p(3);
  p.Observe(Obs(0, 1, 100.0));  // should be evicted
  p.Observe(Obs(1, 1, 2.0));
  p.Observe(Obs(2, 1, 4.0));
  p.Observe(Obs(3, 1, 6.0));
  EXPECT_DOUBLE_EQ(p.PredictOne(4.0, 1.0), 4.0);
}

TEST(MovingAverage, InvalidWindowThrows) {
  EXPECT_THROW(MovingAveragePredictor(0), std::invalid_argument);
}

TEST(Ema, ConservativeMinOfFastSlow) {
  EmaPredictor p;
  // A long stable period then a sudden drop: the fast EMA tracks the drop,
  // and the min() makes the forecast conservative.
  for (int i = 0; i < 30; ++i) p.Observe(Obs(i, 1.0, 10.0));
  for (int i = 30; i < 33; ++i) p.Observe(Obs(i, 1.0, 2.0));
  const double forecast = p.PredictOne(33.0, 1.0);
  EXPECT_LT(forecast, 7.0);  // reacted to the drop
  EXPECT_GT(forecast, 2.0);  // but not fully converged yet
}

TEST(Ema, LongerDownloadsMoveItMore) {
  EmaPredictor fast_moved;
  EmaPredictor slow_moved;
  for (int i = 0; i < 10; ++i) {
    fast_moved.Observe(Obs(i, 1.0, 10.0));
    slow_moved.Observe(Obs(i, 1.0, 10.0));
  }
  fast_moved.Observe(Obs(10.0, 8.0, 1.0));   // long slow download
  slow_moved.Observe(Obs(10.0, 0.5, 1.0));   // brief slow download
  EXPECT_LT(fast_moved.PredictOne(18.0, 1.0),
            slow_moved.PredictOne(10.5, 1.0));
}

TEST(Ema, InvalidHalfLivesThrow) {
  EXPECT_THROW(EmaPredictor(0.0, 8.0), std::invalid_argument);
  EXPECT_THROW(EmaPredictor(8.0, 3.0), std::invalid_argument);
}

TEST(HarmonicMean, PenalizesOutlierHighSamples) {
  HarmonicMeanPredictor hm(5);
  MovingAveragePredictor ma(5);
  for (const double v : {2.0, 2.0, 2.0, 2.0, 100.0}) {
    hm.Observe(Obs(0, 1, v));
    ma.Observe(Obs(0, 1, v));
  }
  EXPECT_LT(hm.PredictOne(5.0, 1.0), ma.PredictOne(5.0, 1.0));
  EXPECT_NEAR(hm.PredictOne(5.0, 1.0), 5.0 / (4.0 / 2.0 + 0.01), 0.2);
}

TEST(SlidingWindow, EvictsByClockTime) {
  SlidingWindowPredictor p(10.0);
  p.Observe(Obs(0.0, 2.0, 100.0));  // outside the window at t=20
  p.Observe(Obs(15.0, 2.0, 4.0));
  EXPECT_NEAR(p.PredictOne(20.0, 2.0), 4.0, 1e-9);
}

TEST(SlidingWindow, WeightsByDuration) {
  SlidingWindowPredictor p(100.0);
  p.Observe(Obs(0.0, 9.0, 1.0));  // 9 Mb over 9 s
  p.Observe(Obs(9.0, 1.0, 11.0));  // 11 Mb over 1 s
  // Duration-weighted: 20 Mb over 10 s = 2 Mb/s (not the sample mean 6).
  EXPECT_NEAR(p.PredictOne(10.0, 2.0), 2.0, 1e-9);
}

TEST(SlidingWindow, ObserveEvictsRelativeToNewestObservation) {
  // Regression: eviction used to run only in PredictHorizon, so a
  // profiling-style run that only feeds Observe grew the deque without
  // bound. Observe now evicts against the newest download's end time —
  // even a prediction at an earlier clock cannot resurrect the dropped
  // observation.
  SlidingWindowPredictor p(10.0);
  p.Observe(Obs(0.0, 2.0, 100.0));
  p.Observe(Obs(20.0, 2.0, 4.0));  // pushes the window past the first obs
  EXPECT_NEAR(p.PredictOne(5.0, 2.0), 4.0, 1e-9);
}

TEST(SlidingWindow, ProRatesObservationStraddlingWindowStart) {
  // Regression: an observation straddling the window start used to count
  // in full, over-weighting stale throughput. Only the in-window fraction
  // (assuming uniform transfer progress) may contribute.
  SlidingWindowPredictor p(10.0);
  p.Observe(Obs(0.0, 4.0, 2.0));   // 8 Mb over [0, 4]
  p.Observe(Obs(10.0, 2.0, 8.0));  // 16 Mb over [10, 12]
  // Window at now = 12 starts at 2: half of the first transfer (2 s, 4 Mb)
  // is inside. Pro-rated mean: (4 + 16) Mb / (2 + 2) s = 5 Mb/s.
  EXPECT_NEAR(p.PredictOne(12.0, 2.0), 5.0, 1e-9);
}

TEST(Oracle, PerfectMatchesTraceAverages) {
  const net::ThroughputTrace trace = net::StepTrace({4.0, 1.0, 2.0}, 2.0);
  OraclePredictor oracle(trace);
  const auto forecast = oracle.PredictHorizon(0.0, 3, 2.0);
  EXPECT_DOUBLE_EQ(forecast[0], 4.0);
  EXPECT_DOUBLE_EQ(forecast[1], 1.0);
  EXPECT_DOUBLE_EQ(forecast[2], 2.0);
}

TEST(Oracle, NoiseIsUnbiasedAndResetRestartsStream) {
  const net::ThroughputTrace trace = net::ConstantTrace(10.0, 1000.0);
  OracleConfig config;
  config.noise_rel_std = 0.3;
  config.seed = 5;
  OraclePredictor oracle(trace, config);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += oracle.PredictOne(0.0, 1.0);
  EXPECT_NEAR(sum / n, 10.0, 0.2);

  oracle.Reset();
  const double first = oracle.PredictOne(0.0, 1.0);
  oracle.Reset();
  EXPECT_DOUBLE_EQ(oracle.PredictOne(0.0, 1.0), first);
}

TEST(Oracle, NameReflectsNoise) {
  const net::ThroughputTrace trace = net::ConstantTrace(10.0, 10.0);
  EXPECT_EQ(OraclePredictor(trace).Name(), "Oracle");
  OracleConfig noisy;
  noisy.noise_rel_std = 0.3;
  EXPECT_EQ(OraclePredictor(trace, noisy).Name(), "Oracle+noise30%");
}

TEST(RobustDiscount, DiscountsAfterOverPrediction) {
  auto inner = std::make_unique<FixedPredictor>(10.0);
  RobustDiscountPredictor robust(std::move(inner), 5);
  // First prediction: no error history, no discount.
  EXPECT_DOUBLE_EQ(robust.PredictOne(0.0, 1.0), 10.0);
  // Actual was 5: over-prediction error = (10-5)/5 = 1.0 -> discount 1/2.
  robust.Observe(Obs(0.0, 1.0, 5.0));
  EXPECT_NEAR(robust.PredictOne(1.0, 1.0), 5.0, 1e-9);
}

TEST(RobustDiscount, NoDiscountForUnderPrediction) {
  auto inner = std::make_unique<FixedPredictor>(10.0);
  RobustDiscountPredictor robust(std::move(inner), 5);
  (void)robust.PredictOne(0.0, 1.0);
  robust.Observe(Obs(0.0, 1.0, 20.0));  // actual higher than predicted
  EXPECT_DOUBLE_EQ(robust.PredictOne(1.0, 1.0), 10.0);
}

TEST(RobustDiscount, NameWrapsInner) {
  RobustDiscountPredictor robust(std::make_unique<EmaPredictor>(), 5);
  EXPECT_EQ(robust.Name(), "Robust(EMA)");
}

TEST(Fixed, AlwaysReturnsValue) {
  FixedPredictor p(7.0);
  EXPECT_DOUBLE_EQ(p.PredictOne(123.0, 2.0), 7.0);
  p.Set(3.0);
  EXPECT_DOUBLE_EQ(p.PredictOne(0.0, 2.0), 3.0);
  EXPECT_THROW(FixedPredictor(0.0), std::invalid_argument);
}

TEST(Profiler, CorrelationDecaysWithHorizon) {
  // Autocorrelated traces: near-future predictions should correlate much
  // better than far-future ones (the Fig. 7 shape).
  Rng rng(99);
  std::vector<net::ThroughputTrace> traces;
  for (int i = 0; i < 30; ++i) {
    net::RandomWalkConfig config;
    config.mean_mbps = 20.0;
    config.stationary_rel_std = 0.6;
    config.reversion_rate = 0.1;
    config.duration_s = 300.0;
    traces.push_back(net::RandomWalkTrace(config, rng));
  }
  const ProfileResult profile = ProfilePredictor(
      [] { return PredictorPtr(std::make_unique<EmaPredictor>()); }, traces,
      1.0, 40);
  ASSERT_EQ(profile.correlation.size(), 40u);
  EXPECT_GT(profile.correlation[0], 0.4);
  EXPECT_LT(profile.correlation[35], profile.correlation[0] * 0.7);
  EXPECT_EQ(profile.predictor_name, "EMA");
}

TEST(Profiler, OneStepErrorPositiveOnVolatileTraces) {
  Rng rng(7);
  net::RandomWalkConfig config;
  config.duration_s = 400.0;
  const std::vector<net::ThroughputTrace> traces = {
      net::RandomWalkTrace(config, rng)};
  const double error = OneStepRelativeError(
      [] { return PredictorPtr(std::make_unique<EmaPredictor>()); }, traces,
      1.0);
  EXPECT_GT(error, 0.05);
  EXPECT_LT(error, 2.0);
}

}  // namespace
}  // namespace soda::predict
