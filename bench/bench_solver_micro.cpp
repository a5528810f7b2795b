// Micro-benchmarks of the horizon solvers (google-benchmark), backing the
// section 4.3/5.3 deployability claims: the monotone solver evaluates
// O(C(|R|+K, K)) sequences (about 200 in the paper's configuration) vs the
// brute-force O(|R|^K), a two-orders-of-magnitude reduction, and one
// decision completes in microseconds even on modest hardware.
//
// The *Pruning benchmarks compare the branch-and-bound default against the
// raw enumeration across prediction shapes (constant / ramping / noisy);
// the *Decision benchmarks compare a full exact SODA decision against the
// table-driven CachedDecisionController serving path.
#include <cmath>

#include <benchmark/benchmark.h>

#include "core/cached_controller.hpp"
#include "core/soda_controller.hpp"
#include "core/solver.hpp"
#include "media/bitrate_ladder.hpp"
#include "media/video_model.hpp"
#include "predict/fixed.hpp"

namespace soda {
namespace {

core::CostModel MakeModel(const media::BitrateLadder& ladder) {
  core::CostModelConfig config;
  config.target_buffer_s = 12.0;
  config.max_buffer_s = 20.0;
  config.dt_s = 2.0;
  return core::CostModel(ladder, config);
}

media::BitrateLadder LadderOfSize(int rungs) {
  std::vector<double> bitrates;
  for (int i = 0; i < rungs; ++i) {
    bitrates.push_back(1.0 * std::pow(60.0, static_cast<double>(i) /
                                                std::max(rungs - 1, 1)));
  }
  return media::BitrateLadder(std::move(bitrates));
}

// With pruned:0, `sequences` is the size of the monotone search space.
void BM_MonotonicSolver(benchmark::State& state) {
  const media::BitrateLadder ladder =
      LadderOfSize(static_cast<int>(state.range(0)));
  const core::CostModel model = MakeModel(ladder);
  core::SolverConfig config;
  config.enable_pruning = state.range(2) != 0;
  const core::MonotonicSolver solver(model, config);
  const std::vector<double> predictions(
      static_cast<std::size_t>(state.range(1)), 10.0);
  long long sequences = 0;
  for (auto _ : state) {
    const core::PlanResult plan = solver.Solve(predictions, 10.0, 2);
    sequences = plan.sequences_evaluated;
    benchmark::DoNotOptimize(plan.first_rung);
  }
  state.counters["sequences"] = static_cast<double>(sequences);
}
BENCHMARK(BM_MonotonicSolver)
    ->ArgsProduct({{6, 10}, {3, 5, 8}, {0, 1}})
    ->ArgNames({"rungs", "K", "pruned"});

void BM_BruteForceSolver(benchmark::State& state) {
  const media::BitrateLadder ladder =
      LadderOfSize(static_cast<int>(state.range(0)));
  const core::CostModel model = MakeModel(ladder);
  const core::BruteForceSolver solver(model);
  const std::vector<double> predictions(
      static_cast<std::size_t>(state.range(1)), 10.0);
  long long sequences = 0;
  for (auto _ : state) {
    const core::PlanResult plan = solver.Solve(predictions, 10.0, 2);
    sequences = plan.sequences_evaluated;
    benchmark::DoNotOptimize(plan.first_rung);
  }
  state.counters["sequences"] = static_cast<double>(sequences);
}
BENCHMARK(BM_BruteForceSolver)
    ->ArgsProduct({{6, 10}, {3, 5}})
    ->ArgNames({"rungs", "K"});

// Prediction shapes the pruning comparison sweeps: 0 = constant, 1 = a
// ramping forecast, 2 = deterministic noise around the mean.
std::vector<double> ShapedPredictions(int shape, int k) {
  std::vector<double> predictions;
  for (int i = 0; i < k; ++i) {
    switch (shape) {
      case 0: predictions.push_back(10.0); break;
      case 1: predictions.push_back(6.0 + 2.0 * i); break;
      default:
        predictions.push_back(10.0 * (1.0 + 0.35 * std::sin(2.7 * i + 0.4)));
        break;
    }
  }
  return predictions;
}

void BM_MonotonicSolverPruning(benchmark::State& state) {
  const media::BitrateLadder ladder = LadderOfSize(6);
  const core::CostModel model = MakeModel(ladder);
  core::SolverConfig config;
  config.enable_pruning = state.range(1) != 0;
  const core::MonotonicSolver solver(model, config);
  const auto predictions =
      ShapedPredictions(static_cast<int>(state.range(0)), 5);
  long long sequences = 0;
  for (auto _ : state) {
    const core::PlanResult plan = solver.Solve(predictions, 10.0, 2);
    sequences = plan.sequences_evaluated;
    benchmark::DoNotOptimize(plan.first_rung);
  }
  state.counters["sequences"] = static_cast<double>(sequences);
}
BENCHMARK(BM_MonotonicSolverPruning)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"shape", "pruned"});

void BM_BruteForcePruning(benchmark::State& state) {
  const media::BitrateLadder ladder = LadderOfSize(6);
  const core::CostModel model = MakeModel(ladder);
  core::SolverConfig config;
  config.enable_pruning = state.range(1) != 0;
  const core::BruteForceSolver solver(model, config);
  const auto predictions =
      ShapedPredictions(static_cast<int>(state.range(0)), 5);
  long long sequences = 0;
  for (auto _ : state) {
    const core::PlanResult plan = solver.Solve(predictions, 10.0, 2);
    sequences = plan.sequences_evaluated;
    benchmark::DoNotOptimize(plan.first_rung);
  }
  state.counters["sequences"] = static_cast<double>(sequences);
}
BENCHMARK(BM_BruteForcePruning)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"shape", "pruned"});

// A deterministic mini-session the controller benchmarks replay: buffer and
// throughput wander across decisions, so warm starts and cache lookups are
// exercised on realistic (non-identical) consecutive contexts.
struct DecisionTrace {
  std::vector<double> buffers;
  std::vector<double> throughputs;
};

DecisionTrace MakeDecisionTrace(int n) {
  DecisionTrace trace;
  for (int i = 0; i < n; ++i) {
    trace.buffers.push_back(6.0 + 5.0 * std::sin(0.7 * i));
    trace.throughputs.push_back(10.0 * (1.0 + 0.4 * std::sin(1.3 * i + 0.9)));
  }
  return trace;
}

template <typename ControllerT>
void RunDecisionBenchmark(benchmark::State& state, ControllerT& controller) {
  const media::BitrateLadder ladder = media::YoutubeHfr4kLadder();
  const media::VideoModel video(ladder, {.segment_seconds = 2.0});
  predict::FixedPredictor predictor(10.0);
  const DecisionTrace trace = MakeDecisionTrace(64);

  abr::Context context;
  context.max_buffer_s = 20.0;
  context.video = &video;
  context.predictor = &predictor;

  // Build lazy state (cost model / decision table) outside the timed loop.
  context.buffer_s = trace.buffers.front();
  media::Rung prev = controller.ChooseRung(context);

  std::size_t i = 0;
  for (auto _ : state) {
    context.now_s += 2.0;
    ++context.segment_index;
    context.buffer_s = trace.buffers[i];
    predictor.Set(trace.throughputs[i]);
    context.prev_rung = prev;
    prev = controller.ChooseRung(context);
    benchmark::DoNotOptimize(prev);
    i = (i + 1) % trace.buffers.size();
  }
}

void BM_SodaDecision(benchmark::State& state) {
  core::SodaConfig config;
  config.warm_start = state.range(0) != 0;
  core::SodaController controller(config);
  RunDecisionBenchmark(state, controller);
}
BENCHMARK(BM_SodaDecision)->Arg(0)->Arg(1)->ArgNames({"warm"});

void BM_CachedDecision(benchmark::State& state) {
  core::CachedControllerConfig config;
  config.lookup = state.range(0) != 0
                      ? core::CachedControllerConfig::Lookup::kBilinear
                      : core::CachedControllerConfig::Lookup::kNearest;
  core::CachedDecisionController controller(config);
  RunDecisionBenchmark(state, controller);
  state.counters["fallbacks"] =
      static_cast<double>(controller.GetStats().fallbacks);
}
BENCHMARK(BM_CachedDecision)->Arg(0)->Arg(1)->ArgNames({"bilinear"});

void BM_MonotonicPerIntervalPredictions(benchmark::State& state) {
  const media::BitrateLadder ladder = LadderOfSize(6);
  const core::CostModel model = MakeModel(ladder);
  const core::MonotonicSolver solver(model);
  std::vector<double> predictions;
  for (int k = 0; k < 5; ++k) {
    predictions.push_back(8.0 + 2.0 * k);  // ramping forecast
  }
  for (auto _ : state) {
    const core::PlanResult plan = solver.Solve(predictions, 10.0, 2);
    benchmark::DoNotOptimize(plan.first_rung);
  }
}
BENCHMARK(BM_MonotonicPerIntervalPredictions);

}  // namespace
}  // namespace soda

BENCHMARK_MAIN();
