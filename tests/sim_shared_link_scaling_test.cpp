// Regression pin for the shared_link_scaling sweep shape: the incremental
// hybrid engine must (a) reproduce the reference bitwise at every sweep
// size — checked in every build type — and (b) never be slower per event
// than the reference at any measured n — checked only when
// SODA_PERF_ASSERT is defined (the Release-only soda_perf_tests target;
// debug/sanitizer builds distort the ratio and would flake).
//
// Timing methodology: wall clocks on shared machines are noisy at the
// sub-millisecond scale of the small rosters, so each n runs up to
// kMaxRounds interleaved (reference, incremental) pairs and passes as soon
// as the running minimum of the incremental times drops to or below the
// running minimum of the reference times. Under the true ordering
// inc <= ref this terminates almost immediately; a genuine regression
// (e.g. the pre-fix heap engine's 0.64x at n=100) keeps inc above ref in
// every round and fails deterministically.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "media/video_model.hpp"
#include "predict/fixed.hpp"
#include "sim/shared_link.hpp"

namespace soda::sim {
namespace {

using Clock = std::chrono::steady_clock;

class PinnedController final : public abr::Controller {
 public:
  explicit PinnedController(media::Rung rung) : rung_(rung) {}
  media::Rung ChooseRung(const abr::Context& context) override {
    return std::min(rung_, context.Ladder().HighestRung());
  }
  std::string Name() const override { return "Pinned"; }

 private:
  media::Rung rung_;
};

// Mirror of bench_perf_report's scaling roster: O(1) controllers,
// heterogeneous rungs, uniquely staggered joins (no lockstep batches).
std::vector<SharedLinkPlayer> MakeScalingRoster(std::size_t n) {
  std::vector<SharedLinkPlayer> players(n);
  for (std::size_t i = 0; i < n; ++i) {
    players[i].controller =
        std::make_unique<PinnedController>(static_cast<media::Rung>(i % 7));
    players[i].predictor = std::make_unique<predict::FixedPredictor>(1.0);
    players[i].join_s = 0.053 * static_cast<double>(i);
  }
  return players;
}

SharedLinkConfig ScalingConfig(std::size_t n) {
  SharedLinkConfig config;
  config.session_s = n <= 16 ? 960.0 : 240.0;
  config.link_capacity_mbps = 0.7 * static_cast<double>(n);
  return config;
}

#ifdef SODA_PERF_ASSERT
// Only the timing assertion, compiled under SODA_PERF_ASSERT, uses this.
double TimeEngine(std::size_t n, SharedLinkEngine engine,
                  SharedLinkResult* out) {
  SharedLinkConfig config = ScalingConfig(n);
  config.engine = engine;
  const media::VideoModel video(media::YoutubeHfr4kLadder(),
                                {.segment_seconds = 2.0});
  const auto start = Clock::now();
  *out = RunSharedLink(MakeScalingRoster(n), video, config);
  const auto end = Clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count();
}
#endif

const std::vector<std::size_t>& SweepCounts() {
  static const std::vector<std::size_t> counts = {4, 16, 48, 100, 400};
  return counts;
}

TEST(SharedLinkScaling, IdenticalOutputAtEverySweepSize) {
  const media::VideoModel video(media::YoutubeHfr4kLadder(),
                                {.segment_seconds = 2.0});
  for (const std::size_t n : SweepCounts()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    SharedLinkConfig config = ScalingConfig(n);
    config.engine = SharedLinkEngine::kReference;
    const SharedLinkResult reference =
        RunSharedLink(MakeScalingRoster(n), video, config);
    config.engine = SharedLinkEngine::kIncremental;
    const SharedLinkResult incremental =
        RunSharedLink(MakeScalingRoster(n), video, config);
    ASSERT_EQ(reference.logs.size(), incremental.logs.size());
    EXPECT_EQ(reference.events, incremental.events);
    EXPECT_EQ(reference.bitrate_fairness, incremental.bitrate_fairness);
    EXPECT_EQ(reference.mean_rebuffer_s, incremental.mean_rebuffer_s);
    EXPECT_EQ(reference.mean_switch_rate, incremental.mean_switch_rate);
    for (std::size_t i = 0; i < reference.logs.size(); ++i) {
      const SessionLog& a = reference.logs[i];
      const SessionLog& b = incremental.logs[i];
      ASSERT_EQ(a.segments.size(), b.segments.size()) << "player " << i;
      EXPECT_EQ(a.total_rebuffer_s, b.total_rebuffer_s) << "player " << i;
      EXPECT_EQ(a.total_wait_s, b.total_wait_s) << "player " << i;
      for (std::size_t s = 0; s < a.segments.size(); ++s) {
        ASSERT_EQ(a.segments[s].rung, b.segments[s].rung);
        ASSERT_EQ(a.segments[s].download_s, b.segments[s].download_s);
        ASSERT_EQ(a.segments[s].buffer_after_s, b.segments[s].buffer_after_s);
      }
    }
  }
}

TEST(SharedLinkScaling, IncrementalNeverSlowerPerEvent) {
#ifndef SODA_PERF_ASSERT
  GTEST_SKIP() << "timing assertion only runs in the Release-configured "
                  "soda_perf_tests target (SODA_PERF_ASSERT)";
#else
  constexpr int kMaxRounds = 20;
  for (const std::size_t n : SweepCounts()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    double min_ref = 0.0;
    double min_inc = 0.0;
    bool incremental_won = false;
    for (int round = 0; round < kMaxRounds; ++round) {
      SharedLinkResult scratch;
      // Alternate order so drift hits both engines symmetrically.
      if (round % 2 == 0) {
        const double ref = TimeEngine(n, SharedLinkEngine::kReference,
                                      &scratch);
        const double inc = TimeEngine(n, SharedLinkEngine::kIncremental,
                                      &scratch);
        min_ref = round == 0 ? ref : std::min(min_ref, ref);
        min_inc = round == 0 ? inc : std::min(min_inc, inc);
      } else {
        const double inc = TimeEngine(n, SharedLinkEngine::kIncremental,
                                      &scratch);
        const double ref = TimeEngine(n, SharedLinkEngine::kReference,
                                      &scratch);
        min_ref = std::min(min_ref, ref);
        min_inc = std::min(min_inc, inc);
      }
      if (round >= 1 && min_inc <= min_ref) {
        incremental_won = true;
        break;
      }
    }
    EXPECT_TRUE(incremental_won)
        << "incremental engine slower than reference at n=" << n
        << " across " << kMaxRounds << " rounds: min incremental "
        << min_inc * 1e-6 << " ms vs min reference " << min_ref * 1e-6
        << " ms (event counts are equal, so per-event cost is slower too)";
  }
#endif
}

}  // namespace
}  // namespace soda::sim
