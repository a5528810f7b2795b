#include "fleet/fleet.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <queue>
#include <tuple>

#include "core/batch_lookup.hpp"
#include "core/decision_table.hpp"
#include "core/quantized_table.hpp"
#include "core/soda_controller.hpp"
#include "fleet/session_arena.hpp"
#include "media/quality.hpp"
#include "obs/metrics.hpp"
#include "predict/predictor.hpp"
#include "qoe/metrics.hpp"
#include "util/ensure.hpp"
#include "util/parallel.hpp"

namespace soda::fleet {
namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
// Domain-separation salts so the arrival stream and the session streams of
// one user never alias.
constexpr std::uint64_t kArrivalSalt = 0xF1EE7A44C0FFEE00ULL;
constexpr std::uint64_t kSessionSalt = 0x5E5510Eul;
// Salt for the user -> region map, so region membership is decorrelated
// from both the arrival process and the session streams.
constexpr std::uint64_t kRegionSalt = 0x4E67104A1C0DE500ULL;

// splitmix64 finalizer (the same mixing the serve daemon uses for session
// seeds): a cheap, well-mixed bijection on 64-bit words.
std::uint64_t Mix64(std::uint64_t x) noexcept {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Pure functions of (base_seed, user, incarnation) — the determinism
// anchor: nothing about a session's randomness depends on arrival order,
// shard assignment or thread interleaving.
std::uint64_t ArrivalSeed(std::uint64_t base, std::uint64_t user) noexcept {
  return Mix64(base ^ kArrivalSalt ^ Mix64(user * kGolden));
}
std::uint64_t SessionSeed(std::uint64_t base, std::uint64_t user,
                          std::uint32_t incarnation) noexcept {
  return Mix64(base ^ kSessionSalt ^ Mix64(user * kGolden) ^
               Mix64(static_cast<std::uint64_t>(incarnation) + 1));
}

std::int64_t ToFixedPoint(double value) noexcept {
  return std::llround(std::clamp(value, -1e6, 1e6) * kFixedPointScale);
}

std::size_t QoeBucket(double qoe) noexcept {
  const double idx = std::floor((qoe + 1.5) / 0.1);
  if (idx < 0.0) return 0;
  if (idx >= static_cast<double>(kQoeHistBuckets)) return kQoeHistBuckets - 1;
  return static_cast<std::size_t>(idx);
}

// A user chain session waiting to start (initial arrival or re-join).
struct PendingStart {
  std::int64_t tick = 0;
  std::uint64_t user = 0;
  std::uint32_t incarnation = 0;
  [[nodiscard]] bool operator>(const PendingStart& other) const noexcept {
    return std::tie(tick, user, incarnation) >
           std::tie(other.tick, other.user, other.incarnation);
  }
};

// Per-shard, per-region slice of the integer accumulators (coupled runs
// only; sized to the region count). Merging is summation, like the rest.
struct RegionShardAccum {
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_abandoned = 0;
  std::uint64_t live_at_end = 0;
  std::int64_t qoe_fp = 0;
  std::array<std::uint64_t, kQoeHistBuckets> qoe_hist{};
};

// Integer-only per-shard accumulators; merging is summation, which is
// order-independent, so the merged totals cannot depend on shard count.
struct ShardAccum {
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_abandoned = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t decisions = 0;
  std::uint64_t clamped_lookups = 0;
  std::uint64_t live_at_end = 0;
  std::uint64_t slo_violations = 0;
  std::uint64_t arena_bytes = 0;
  std::array<std::uint64_t, kQoeHistBuckets> qoe_hist{};
  std::int64_t qoe_fp = 0;
  std::int64_t utility_fp = 0;
  std::int64_t rebuffer_ratio_fp = 0;
  std::int64_t switch_rate_fp = 0;
  std::int64_t watch_s_fp = 0;
  std::uint64_t session_checksum = 0;
  std::vector<std::uint64_t> live_samples;
  std::vector<RegionShardAccum> regions;
};

// Everything shards share, all of it immutable during the run.
struct FleetContext {
  explicit FleetContext(const FleetConfig& c) : config(c) {}

  const FleetConfig& config;
  std::int64_t ticks = 0;
  core::DecisionTablePtr exact;
  core::QuantizedTablePtr quantized;
  // Batched lookup kernel over the serving table (quantized if configured,
  // else exact); immutable and shared across shards. Bit-identical to the
  // scalar LookupDecision the tick loop used to call per session.
  core::BatchKernelPtr kernel;
  std::vector<double> rung_utility;   // NormalizedLogUtility per rung
  std::vector<double> rung_megabits;  // segment payload per rung
  double grid_min_mbps = 0.0;
  double grid_max_mbps = 0.0;
  obs::Histogram qoe_histogram;       // fleet.qoe, recorded at session end
  // Regional coupling (empty `regions` leaves both unused).
  std::size_t region_count = 0;
  std::vector<obs::Histogram> region_qoe;  // fleet.region.<name>.qoe
};

class ShardRunner {
 public:
  ShardRunner(const FleetContext& ctx, int shard_index)
      : ctx_(ctx), shard_index_(shard_index) {}

  void Prepare() {
    BuildArrivals();
    const auto shard_users = static_cast<std::size_t>(pending_.size());
    // Steady-state live count per shard is bounded by its user count;
    // reserving a fraction of it avoids regrowth without overcommitting
    // memory when engagement keeps concurrency low.
    arena_.Reserve(shard_users / 2 + 16);
    active_.reserve(shard_users / 2 + 16);
    const std::size_t batch = shard_users / 2 + 16;
    batch_buffer_.reserve(batch);
    batch_mbps_.reserve(batch);
    batch_prev_.reserve(batch);
    batch_rung_.reserve(batch);
    batch_ended_.reserve(batch);
    acc_.regions.resize(ctx_.region_count);
    tick_region_demand_fp_.resize(ctx_.region_count);
    tick_region_live_.resize(ctx_.region_count);
  }

  // Open-loop timeline: with no regions there is no cross-session state,
  // so the shard runs every tick back to back with no synchronization.
  // Per session this is exactly DemandPhase + ApplyPhase with a unit
  // multiplier (x1.0 is exact in IEEE arithmetic), which is what keeps
  // the zero-coupling run bit-identical to the coupled code path.
  void RunOpenLoop() {
    for (std::int64_t tick = 0; tick < ctx_.ticks; ++tick) {
      AdmitArrivals(tick);
      for (const Slot s : active_) DrawDemand(s);
      StepAllBatched(tick, /*multipliers=*/nullptr);
      SampleLive(tick);
    }
  }

  // Coupled tick, phase 1: admit arrivals, advance every live session's
  // AR(1) walk, and accumulate this tick's per-region demand and live
  // count. Fixed-point integer sums make the totals independent of session
  // order within the shard and of how users are split across shards.
  void DemandPhase(std::int64_t tick) {
    AdmitArrivals(tick);
    std::fill(tick_region_demand_fp_.begin(), tick_region_demand_fp_.end(),
              std::int64_t{0});
    std::fill(tick_region_live_.begin(), tick_region_live_.end(),
              std::uint64_t{0});
    for (const Slot s : active_) {
      DrawDemand(s);
      const std::uint32_t region = arena_.region[s];
      tick_region_demand_fp_[region] += ToFixedPoint(arena_.demand_mbps[s]);
      ++tick_region_live_[region];
    }
  }

  // Coupled tick, phase 2: complete every session's step under its
  // region's congestion multiplier.
  void ApplyPhase(std::int64_t tick, const std::vector<double>& multipliers) {
    StepAllBatched(tick, &multipliers);
    SampleLive(tick);
  }

  void Finish() {
    // Sessions still live at the horizon are censored, not finalized; fold
    // their full state into the checksum so bit-identity claims cover them.
    acc_.live_at_end = active_.size();
    for (const Slot slot : active_) {
      acc_.session_checksum += LiveStateDigest(slot);
      if (ctx_.region_count > 0) {
        ++acc_.regions[arena_.region[slot]].live_at_end;
      }
    }
    acc_.arena_bytes = arena_.MemoryBytes();
  }

  [[nodiscard]] ShardAccum& Accum() noexcept { return acc_; }
  [[nodiscard]] const std::vector<std::int64_t>& TickRegionDemand()
      const noexcept {
    return tick_region_demand_fp_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& TickRegionLive()
      const noexcept {
    return tick_region_live_;
  }

 private:
  void AdmitArrivals(std::int64_t tick) {
    while (!pending_.empty() && pending_.top().tick <= tick) {
      const PendingStart start = pending_.top();
      pending_.pop();
      StartSession(start);
    }
  }

  void SampleLive(std::int64_t tick) {
    const int sample_every =
        std::max(ctx_.config.live_sample_every_ticks, 1);
    if (tick % sample_every == 0) {
      acc_.live_samples.push_back(active_.size());
    }
  }

  void BuildArrivals() {
    const FleetConfig& cfg = ctx_.config;
    const auto shards = static_cast<std::uint64_t>(cfg.shards);
    const double dt = cfg.segment_seconds;
    std::vector<PendingStart> initial;
    for (std::uint64_t user = static_cast<std::uint64_t>(shard_index_);
         user < cfg.users; user += shards) {
      Rng rng(ArrivalSeed(cfg.base_seed, user));
      const double arrival_s = SampleArrivalTime(cfg.arrival, rng);
      initial.push_back({static_cast<std::int64_t>(arrival_s / dt), user, 0});
    }
    pending_ = PendingQueue(std::greater<>(), std::move(initial));
  }

  void StartSession(const PendingStart& start) {
    const FleetConfig& cfg = ctx_.config;
    const Slot s = arena_.Allocate();
    active_.push_back(s);
    arena_.user_id[s] = start.user;
    arena_.incarnation[s] = start.incarnation;
    arena_.rng[s] =
        Rng(SessionSeed(cfg.base_seed, start.user, start.incarnation));
    Rng& rng = arena_.rng[s];
    const double log_mean =
        std::log(cfg.median_mbps) + cfg.session_log_sigma * rng.Gaussian();
    arena_.log_mbps_mean[s] = log_mean;
    arena_.log_mbps[s] = log_mean;
    arena_.stream_s[s] = std::clamp(
        std::exp(std::log(cfg.stream_median_s) +
                 cfg.stream_log_sigma * rng.Gaussian()),
        cfg.stream_min_s, cfg.stream_max_s);
    arena_.buffer_s[s] = 0.0;
    arena_.ema_fast[s] = 0.0;
    arena_.ema_slow[s] = 0.0;
    arena_.ema_fast_w[s] = 0.0;
    arena_.ema_slow_w[s] = 0.0;
    arena_.played_s[s] = 0.0;
    arena_.rebuffer_s[s] = 0.0;
    arena_.utility_sum[s] = 0.0;
    arena_.segments[s] = 0;
    arena_.switches[s] = 0;
    arena_.prev_rung[s] = -1;
    arena_.demand_mbps[s] = 0.0;
    arena_.region[s] =
        ctx_.region_count > 0 ? RegionOfUser(start.user, ctx_.region_count) : 0;
    ++acc_.sessions_started;
    if (ctx_.region_count > 0) {
      ++acc_.regions[arena_.region[s]].sessions_started;
    }
    if (start.incarnation > 0) ++acc_.rejoins;
  }

  // Step, phase 1: the AR(1) log-throughput walk supplies this segment's
  // uncongested rate — the session's demand on its region's pool.
  void DrawDemand(Slot s) {
    const FleetConfig& cfg = ctx_.config;
    Rng& rng = arena_.rng[s];
    arena_.log_mbps[s] = arena_.log_mbps_mean[s] +
                         cfg.walk_phi *
                             (arena_.log_mbps[s] - arena_.log_mbps_mean[s]) +
                         cfg.walk_sigma * rng.Gaussian();
    arena_.demand_mbps[s] =
        std::max(std::exp(arena_.log_mbps[s]), cfg.min_mbps);
  }

  // Step, phase 2 over the whole shard: one SoA gather of every live
  // session's decision inputs, one batched kernel call, then the per-session
  // completion. The kernel is bit-identical to the scalar LookupDecision the
  // old per-session loop ran, each session's RNG is consumed in the same
  // order as before (only FinishStep and DrawDemand touch it), and the
  // accumulators are order-independent integer sums, so the whole run is
  // bit-identical to the scalar tick loop at any batch size.
  void StepAllBatched(std::int64_t tick,
                      const std::vector<double>* multipliers) {
    const FleetConfig& cfg = ctx_.config;
    const std::size_t n = active_.size();
    batch_buffer_.resize(n);
    batch_mbps_.resize(n);
    batch_prev_.resize(n);
    batch_rung_.resize(n);
    batch_ended_.assign(n, 0);

    // Gather. The fleet's hot loop never runs the exact solver: off-grid
    // inputs are clamped into the grid instead (and counted). At population
    // scale the clamp binds only in deep fades below the grid's min
    // throughput; the serving daemon keeps the exact-fallback semantics for
    // parity work.
    for (std::size_t i = 0; i < n; ++i) {
      const Slot s = active_[i];
      // Dual-EMA forecast, bit-identical to EmaPredictor / DecisionService.
      double w = predict::kDefaultColdStartMbps;
      if (arena_.ema_fast_w[s] > 0.0 && arena_.ema_slow_w[s] > 0.0) {
        const double fast = arena_.ema_fast[s] / arena_.ema_fast_w[s];
        const double slow = arena_.ema_slow[s] / arena_.ema_slow_w[s];
        w = std::max(std::min(fast, slow), 1e-3);
      }
      const double wl = std::clamp(w, ctx_.grid_min_mbps, ctx_.grid_max_mbps);
      const double bl = std::clamp(arena_.buffer_s[s], 0.0, cfg.max_buffer_s);
      if (wl != w || bl != arena_.buffer_s[s]) ++acc_.clamped_lookups;
      batch_buffer_[i] = bl;
      batch_mbps_[i] = wl;
      batch_prev_[i] = arena_.prev_rung[s];
    }

    ctx_.kernel->LookupBatch(batch_buffer_, batch_mbps_, batch_prev_,
                             batch_rung_);
    acc_.decisions += n;

    for (std::size_t i = 0; i < n; ++i) {
      const Slot s = active_[i];
      const double multiplier =
          multipliers != nullptr ? (*multipliers)[arena_.region[s]] : 1.0;
      batch_ended_[i] =
          FinishStep(s, tick, batch_rung_[i], multiplier) ? 1 : 0;
    }

    // Compact after the batched pass (no mid-iteration swap-remove): keep
    // the survivors in place, release the rest. Which arena slots end up on
    // the free list in which order is immaterial — all session state is
    // per-slot and nothing ever iterates the arena itself.
    std::size_t live = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (batch_ended_[i] != 0) {
        arena_.Release(active_[i]);
      } else {
        active_[live++] = active_[i];
      }
    }
    active_.resize(live);
  }

  // Per-session completion: download, buffer/stall accounting, EMA update,
  // engagement — everything past the (already batched) rung decision, under
  // the region's congestion multiplier. Returns true when the session ended
  // this tick (already finalized into the accumulators).
  bool FinishStep(Slot s, std::int64_t tick, media::Rung rung,
                  double multiplier) {
    const FleetConfig& cfg = ctx_.config;
    const double dt = cfg.segment_seconds;
    const media::Rung prev = arena_.prev_rung[s];

    // The delivered rate is the walk's draw scaled by the region's
    // congestion multiplier (1.0 when uncongested or open-loop — exact, so
    // the uncoupled path reproduces the pre-region arithmetic bitwise),
    // floored at the access floor.
    const double mbps =
        std::max(arena_.demand_mbps[s] * multiplier, cfg.min_mbps);
    const double download_s =
        ctx_.rung_megabits[static_cast<std::size_t>(rung)] / mbps + cfg.rtt_s;

    // Buffer drains in real time during the download; a shortfall stalls
    // playback. The first segment's wait is startup delay, not rebuffering
    // (the paper's QoE omits startup).
    if (arena_.segments[s] > 0) {
      arena_.rebuffer_s[s] += std::max(download_s - arena_.buffer_s[s], 0.0);
    }
    arena_.buffer_s[s] = std::min(
        std::max(arena_.buffer_s[s] - download_s, 0.0) + dt, cfg.max_buffer_s);

    // Fold the observation into the dual EMA (serve::DecisionService's
    // arithmetic, duration-weighted like dash.js).
    {
      const auto update = [&](double half_life, double& estimate,
                              double& weight) {
        const double alpha = std::pow(0.5, download_s / half_life);
        estimate = alpha * estimate + (1.0 - alpha) * mbps;
        weight = alpha * weight + (1.0 - alpha);
      };
      update(3.0, arena_.ema_fast[s], arena_.ema_fast_w[s]);
      update(8.0, arena_.ema_slow[s], arena_.ema_slow_w[s]);
    }

    arena_.utility_sum[s] += ctx_.rung_utility[static_cast<std::size_t>(rung)];
    if (prev >= 0 && rung != prev) ++arena_.switches[s];
    arena_.prev_rung[s] = static_cast<std::int16_t>(rung);
    ++arena_.segments[s];
    arena_.played_s[s] += dt;

    // Engagement: every K segments the viewer re-evaluates. The model maps
    // the session's running switching/rebuffering into a watch fraction;
    // once the viewer has consumed their (noisy) share, they leave.
    if (arena_.segments[s] %
            static_cast<std::uint32_t>(cfg.engagement_check_segments) ==
        0) {
      qoe::QoeMetrics running;
      running.switch_rate =
          arena_.segments[s] > 1
              ? static_cast<double>(arena_.switches[s]) /
                    static_cast<double>(arena_.segments[s] - 1)
              : 0.0;
      const double wall = arena_.played_s[s] + arena_.rebuffer_s[s];
      running.rebuffer_ratio = wall > 0.0 ? arena_.rebuffer_s[s] / wall : 0.0;
      const double fraction =
          engagement_.SampleWatchFraction(running, arena_.rng[s]);
      if (arena_.played_s[s] >= fraction * arena_.stream_s[s]) {
        EndSession(s, tick, /*completed=*/false);
        return true;
      }
    }
    if (arena_.played_s[s] >= arena_.stream_s[s]) {
      EndSession(s, tick, /*completed=*/true);
      return true;
    }
    return false;
  }

  void EndSession(Slot s, std::int64_t tick, bool completed) {
    const FleetConfig& cfg = ctx_.config;
    const std::uint32_t segs = arena_.segments[s];
    const double utility =
        segs > 0 ? arena_.utility_sum[s] / static_cast<double>(segs) : 0.0;
    const double switch_rate =
        segs > 1 ? static_cast<double>(arena_.switches[s]) /
                       static_cast<double>(segs - 1)
                 : 0.0;
    const double wall = arena_.played_s[s] + arena_.rebuffer_s[s];
    const double rebuffer_ratio =
        wall > 0.0 ? arena_.rebuffer_s[s] / wall : 0.0;
    const qoe::QoeWeights weights;
    const double qoe = utility - weights.beta * rebuffer_ratio -
                       weights.gamma * switch_rate;

    completed ? ++acc_.sessions_completed : ++acc_.sessions_abandoned;
    if (rebuffer_ratio > cfg.slo_rebuffer_ratio) ++acc_.slo_violations;
    const std::int64_t qoe_fp = ToFixedPoint(qoe);
    acc_.qoe_fp += qoe_fp;
    acc_.utility_fp += ToFixedPoint(utility);
    acc_.rebuffer_ratio_fp += ToFixedPoint(rebuffer_ratio);
    acc_.switch_rate_fp += ToFixedPoint(switch_rate);
    acc_.watch_s_fp += ToFixedPoint(arena_.played_s[s]);
    ++acc_.qoe_hist[QoeBucket(qoe)];
    ctx_.qoe_histogram.Record(qoe);
    if (ctx_.region_count > 0) {
      RegionShardAccum& region = acc_.regions[arena_.region[s]];
      completed ? ++region.sessions_completed : ++region.sessions_abandoned;
      region.qoe_fp += qoe_fp;
      ++region.qoe_hist[QoeBucket(qoe)];
      ctx_.region_qoe[arena_.region[s]].Record(qoe);
    }

    std::uint64_t h = arena_.user_id[s] * kGolden;
    h = Mix64(h ^ (arena_.incarnation[s] + 1));
    h = Mix64(h ^ static_cast<std::uint64_t>(qoe_fp));
    h = Mix64(h ^ ((static_cast<std::uint64_t>(segs) << 32) |
                   arena_.switches[s]));
    h = Mix64(h ^ std::bit_cast<std::uint64_t>(arena_.played_s[s]));
    h = Mix64(h ^ std::bit_cast<std::uint64_t>(arena_.rebuffer_s[s]));
    acc_.session_checksum += h;

    // Churn: some viewers come back. The re-join is a fresh incarnation of
    // the same user chain — its delay comes from the *ending* session's
    // rng, its own randomness from SessionSeed(user, incarnation + 1) — so
    // the whole chain stays a pure function of (base_seed, user_id).
    const std::uint32_t next = arena_.incarnation[s] + 1;
    if (next < static_cast<std::uint32_t>(cfg.max_incarnations) &&
        arena_.rng[s].Chance(cfg.rejoin_probability)) {
      const double delay_s =
          arena_.rng[s].Exponential(1.0 / cfg.rejoin_delay_mean_s);
      const auto delay_ticks =
          static_cast<std::int64_t>(delay_s / cfg.segment_seconds);
      pending_.push({tick + 1 + delay_ticks, arena_.user_id[s], next});
    }
  }

  [[nodiscard]] std::uint64_t LiveStateDigest(Slot s) const noexcept {
    std::uint64_t h = arena_.user_id[s] * kGolden;
    h = Mix64(h ^ (arena_.incarnation[s] + 1));
    h = Mix64(h ^ ((static_cast<std::uint64_t>(arena_.segments[s]) << 32) |
                   arena_.switches[s]));
    h = Mix64(h ^ std::bit_cast<std::uint64_t>(arena_.buffer_s[s]));
    h = Mix64(h ^ std::bit_cast<std::uint64_t>(arena_.ema_fast[s]));
    h = Mix64(h ^ std::bit_cast<std::uint64_t>(arena_.ema_slow[s]));
    h = Mix64(h ^ std::bit_cast<std::uint64_t>(arena_.played_s[s]));
    h = Mix64(h ^ std::bit_cast<std::uint64_t>(arena_.rebuffer_s[s]));
    h = Mix64(h ^ std::bit_cast<std::uint64_t>(arena_.utility_sum[s]));
    h = Mix64(h ^ static_cast<std::uint64_t>(
                      static_cast<std::uint16_t>(arena_.prev_rung[s])));
    return h;
  }

  using PendingQueue =
      std::priority_queue<PendingStart, std::vector<PendingStart>,
                          std::greater<>>;

  const FleetContext& ctx_;
  int shard_index_;
  user::EngagementModel engagement_{ctx_.config.engagement};
  SessionArena arena_;
  std::vector<Slot> active_;
  PendingQueue pending_;
  ShardAccum acc_;
  // Per-tick scratch (coupled runs): this shard's demand and live count
  // per region, re-filled by every DemandPhase.
  std::vector<std::int64_t> tick_region_demand_fp_;
  std::vector<std::uint64_t> tick_region_live_;
  // SoA decision-batch scratch, re-filled by every StepAllBatched; reserved
  // in Prepare so the steady state never reallocates.
  std::vector<double> batch_buffer_;
  std::vector<double> batch_mbps_;
  std::vector<std::int16_t> batch_prev_;
  std::vector<std::int16_t> batch_rung_;
  std::vector<std::uint8_t> batch_ended_;
};

void ValidateConfig(const FleetConfig& config) {
  SODA_ENSURE(config.users > 0, "fleet needs at least one user");
  SODA_ENSURE(config.shards >= 1, "need at least one shard");
  SODA_ENSURE(config.segment_seconds > 0.0, "segment length must be positive");
  SODA_ENSURE(config.max_buffer_s > 0.0, "max buffer must be positive");
  SODA_ENSURE(config.rtt_s >= 0.0, "rtt must be non-negative");
  SODA_ENSURE(config.median_mbps > 0.0, "median throughput must be positive");
  SODA_ENSURE(config.session_log_sigma >= 0.0 && config.walk_sigma >= 0.0,
              "log-sigmas must be non-negative");
  SODA_ENSURE(config.walk_phi >= 0.0 && config.walk_phi < 1.0,
              "walk_phi must be in [0, 1)");
  SODA_ENSURE(config.min_mbps > 0.0, "throughput floor must be positive");
  SODA_ENSURE(config.stream_min_s > 0.0 &&
                  config.stream_min_s <= config.stream_max_s,
              "stream length clamp range invalid");
  SODA_ENSURE(config.stream_median_s > 0.0,
              "stream median length must be positive");
  SODA_ENSURE(config.engagement_check_segments >= 1,
              "engagement check cadence must be >= 1 segment");
  SODA_ENSURE(config.rejoin_probability >= 0.0 &&
                  config.rejoin_probability <= 1.0,
              "rejoin probability must be in [0, 1]");
  SODA_ENSURE(config.rejoin_delay_mean_s > 0.0,
              "rejoin delay mean must be positive");
  SODA_ENSURE(config.max_incarnations >= 1, "need at least one incarnation");
  SODA_ENSURE(config.live_sample_every_ticks >= 1,
              "live sample cadence must be >= 1 tick");
  SODA_ENSURE(config.arrival.horizon_s > config.segment_seconds,
              "horizon must cover at least one tick");
  SODA_ENSURE(config.arrival.diurnal_amplitude >= 0.0 &&
                  config.arrival.diurnal_amplitude < 1.0,
              "diurnal amplitude must be in [0, 1)");
  SODA_ENSURE(config.arrival.diurnal_period_s > 0.0,
              "diurnal period must be positive");
  for (const RegionConfig& region : config.regions) {
    SODA_ENSURE(!region.name.empty(), "region name must be non-empty");
    SODA_ENSURE(region.capacity_mbps > 0.0,
                "region capacity must be positive");
    SODA_ENSURE(region.diurnal_amplitude >= 0.0 &&
                    region.diurnal_amplitude < 1.0,
                "region diurnal amplitude must be in [0, 1)");
    SODA_ENSURE(region.diurnal_period_s > 0.0,
                "region diurnal period must be positive");
  }
  // Delegate planner/grid validation to the exact controller.
  (void)core::SodaController(config.controller.base);
  const auto& cc = config.controller;
  SODA_ENSURE(cc.buffer_points >= 2 && cc.throughput_points >= 2,
              "decision table needs at least a 2x2 grid");
  SODA_ENSURE(cc.max_mbps > cc.min_mbps && cc.min_mbps > 0.0,
              "invalid table throughput range");
}

// A region's pool capacity at virtual time t_s: the arrival model's
// sinusoidal modulation shape applied to the pool. Pure function of
// (config, t_s), so every shard and thread computes the same value.
double RegionCapacityMbps(const RegionConfig& region, double t_s) noexcept {
  return region.capacity_mbps *
         (1.0 + region.diurnal_amplitude *
                    std::sin(2.0 * std::numbers::pi *
                             (t_s + region.diurnal_phase_s) /
                             region.diurnal_period_s));
}

}  // namespace

std::vector<RegionConfig> MakeUniformRegions(int count, double capacity_mbps,
                                             double diurnal_amplitude) {
  SODA_ENSURE(count >= 1, "need at least one region");
  std::vector<RegionConfig> regions;
  regions.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    RegionConfig region;
    region.name = "r";
    region.name += std::to_string(i);
    region.capacity_mbps = capacity_mbps;
    region.diurnal_amplitude = diurnal_amplitude;
    regions.push_back(std::move(region));
  }
  return regions;
}

std::uint32_t RegionOfUser(std::uint64_t user_id,
                           std::size_t region_count) noexcept {
  if (region_count <= 1) return 0;
  return static_cast<std::uint32_t>(Mix64(user_id * kGolden ^ kRegionSalt) %
                                    static_cast<std::uint64_t>(region_count));
}

double RegionStats::MeanMultiplier(std::int64_t ticks) const noexcept {
  return ticks > 0 ? static_cast<double>(multiplier_fp_sum) /
                         kFixedPointScale / static_cast<double>(ticks)
                   : 1.0;
}
double RegionStats::MeanUtilization(std::int64_t ticks) const noexcept {
  return ticks > 0 ? static_cast<double>(utilization_fp_sum) /
                         kFixedPointScale / static_cast<double>(ticks)
                   : 0.0;
}
double RegionStats::MeanQoe() const noexcept {
  return sessions_ended > 0 ? static_cast<double>(qoe_fp) / kFixedPointScale /
                                  static_cast<double>(sessions_ended)
                            : 0.0;
}
double RegionStats::AbandonFraction() const noexcept {
  return sessions_ended > 0 ? static_cast<double>(sessions_abandoned) /
                                  static_cast<double>(sessions_ended)
                            : 0.0;
}

double FleetSummary::MeanQoe() const noexcept {
  return sessions_ended > 0 ? static_cast<double>(qoe_fp) / kFixedPointScale /
                                  static_cast<double>(sessions_ended)
                            : 0.0;
}
double FleetSummary::MeanUtility() const noexcept {
  return sessions_ended > 0
             ? static_cast<double>(utility_fp) / kFixedPointScale /
                   static_cast<double>(sessions_ended)
             : 0.0;
}
double FleetSummary::MeanRebufferRatio() const noexcept {
  return sessions_ended > 0
             ? static_cast<double>(rebuffer_ratio_fp) / kFixedPointScale /
                   static_cast<double>(sessions_ended)
             : 0.0;
}
double FleetSummary::MeanSwitchRate() const noexcept {
  return sessions_ended > 0
             ? static_cast<double>(switch_rate_fp) / kFixedPointScale /
                   static_cast<double>(sessions_ended)
             : 0.0;
}
double FleetSummary::MeanWatchSeconds() const noexcept {
  return sessions_ended > 0
             ? static_cast<double>(watch_s_fp) / kFixedPointScale /
                   static_cast<double>(sessions_ended)
             : 0.0;
}
double FleetSummary::SloViolationFraction() const noexcept {
  return sessions_ended > 0 ? static_cast<double>(slo_violations) /
                                  static_cast<double>(sessions_ended)
                            : 0.0;
}

FleetSummary RunFleet(const FleetConfig& config, int threads) {
  ValidateConfig(config);

  FleetContext ctx(config);
  ctx.ticks = static_cast<std::int64_t>(
      std::ceil(config.arrival.horizon_s / config.segment_seconds));

  // Table setup mirrors serve::DecisionService::RegisterTenant so a fleet
  // run, a serving tenant and a simulated CachedDecisionController with the
  // same geometry all adopt the same shared build.
  const auto& cc = config.controller;
  core::CostModelConfig mc;
  mc.weights = cc.base.weights;
  mc.dt_s = config.segment_seconds;
  mc.max_buffer_s = config.max_buffer_s;
  mc.target_buffer_s = cc.base.target_buffer_s.value_or(
      cc.base.target_fraction * config.max_buffer_s);
  mc.distortion = cc.base.distortion;
  core::SolverConfig sc;
  sc.hard_buffer_constraints = cc.base.hard_buffer_constraints;
  sc.tail_intervals = cc.base.tail_intervals;
  const auto build = [&] {
    core::CostModel model(config.ladder, mc);
    core::MonotonicSolver solver(model, sc);
    return core::BuildDecisionTable(model, solver, cc.base, cc.buffer_points,
                                    cc.throughput_points, cc.min_mbps,
                                    cc.max_mbps);
  };
  if (cc.share_table) {
    const std::string key = core::DecisionTableKey(
        config.ladder, mc, cc.base, cc.buffer_points, cc.throughput_points,
        cc.min_mbps, cc.max_mbps);
    ctx.exact = core::SharedDecisionTable(key, build);
    if (config.quantized) {
      ctx.quantized = core::SharedQuantizedTable(
          key, [&] { return core::QuantizeDecisionTable(*ctx.exact); });
      ctx.kernel = core::SharedBatchKernel(key, ctx.quantized, cc.lookup);
    } else {
      ctx.kernel = core::SharedBatchKernel(key, ctx.exact, cc.lookup,
                                           config.max_buffer_s);
    }
  } else {
    ctx.exact = std::make_shared<const core::DecisionTable>(build());
    if (config.quantized) {
      ctx.quantized = std::make_shared<const core::QuantizedDecisionTable>(
          core::QuantizeDecisionTable(*ctx.exact));
      ctx.kernel = std::make_shared<const core::BatchDecisionKernel>(
          ctx.quantized, cc.lookup);
    } else {
      ctx.kernel = std::make_shared<const core::BatchDecisionKernel>(
          ctx.exact, cc.lookup, config.max_buffer_s);
    }
  }
  ctx.grid_min_mbps = cc.min_mbps;
  ctx.grid_max_mbps = cc.max_mbps;

  const media::NormalizedLogUtility utility(config.ladder);
  for (media::Rung r = 0; r < config.ladder.Count(); ++r) {
    const double mbps = config.ladder.BitrateMbps(r);
    ctx.rung_utility.push_back(utility.At(mbps));
    ctx.rung_megabits.push_back(mbps * config.segment_seconds);
  }
  const std::vector<double> qoe_buckets = {-1.0, -0.75, -0.5, -0.25, -0.1,
                                           0.0,  0.1,   0.2,  0.3,   0.4,
                                           0.5,  0.6,   0.7,  0.8,   0.9,
                                           1.0};
  ctx.qoe_histogram =
      obs::MetricsRegistry::Global().GetHistogram("fleet.qoe", qoe_buckets);
  ctx.region_count = config.regions.size();
  for (const RegionConfig& region : config.regions) {
    ctx.region_qoe.push_back(obs::MetricsRegistry::Global().GetHistogram(
        "fleet.region." + region.name + ".qoe", qoe_buckets));
  }

  std::vector<std::unique_ptr<ShardRunner>> runners;
  runners.reserve(static_cast<std::size_t>(config.shards));
  for (int s = 0; s < config.shards; ++s) {
    runners.push_back(std::make_unique<ShardRunner>(ctx, s));
  }
  util::ParallelFor(
      runners.size(), threads,
      [&](int /*worker*/, std::size_t s) { runners[s]->Prepare(); });

  // Central per-region tick statistics, filled by the coordinator during
  // the coupled reduction (serial, so trivially deterministic).
  struct RegionTickStats {
    std::uint64_t peak_live = 0;
    std::int64_t congested_ticks = 0;
    std::int64_t multiplier_fp_sum = 0;
    std::int64_t utilization_fp_sum = 0;
  };
  std::vector<RegionTickStats> region_ticks(ctx.region_count);

  if (ctx.region_count == 0) {
    // Open loop: shards never interact, so each runs its entire timeline
    // independently; ParallelFor only decides which worker runs which
    // shard.
    util::ParallelFor(
        runners.size(), threads,
        [&](int /*worker*/, std::size_t s) { runners[s]->RunOpenLoop(); });
  } else {
    // Closed loop: sessions in one region interact through the congestion
    // multiplier, so the fleet advances tick by tick in two deterministic
    // phases — parallel per-shard demand accumulation, an ordered integer
    // reduction to one multiplier per region, then a parallel apply. The
    // reduction sums int64 fixed-point demand in shard order; integer
    // addition is associative and commutative, so the totals (and every
    // multiplier) are independent of shard count and thread interleaving.
    std::vector<double> multipliers(ctx.region_count, 1.0);
    for (std::int64_t tick = 0; tick < ctx.ticks; ++tick) {
      util::ParallelFor(
          runners.size(), threads,
          [&](int /*worker*/, std::size_t s) { runners[s]->DemandPhase(tick); });
      const double t_s = static_cast<double>(tick) * config.segment_seconds;
      for (std::size_t r = 0; r < ctx.region_count; ++r) {
        std::int64_t demand_fp = 0;
        std::uint64_t live = 0;
        for (const auto& runner : runners) {
          demand_fp += runner->TickRegionDemand()[r];
          live += runner->TickRegionLive()[r];
        }
        const double capacity_mbps =
            RegionCapacityMbps(config.regions[r], t_s);
        const double demand_mbps =
            static_cast<double>(demand_fp) / kFixedPointScale;
        const double multiplier =
            demand_mbps > capacity_mbps ? capacity_mbps / demand_mbps : 1.0;
        multipliers[r] = multiplier;
        RegionTickStats& stats = region_ticks[r];
        stats.peak_live = std::max(stats.peak_live, live);
        if (multiplier < 1.0) ++stats.congested_ticks;
        stats.multiplier_fp_sum += ToFixedPoint(multiplier);
        stats.utilization_fp_sum +=
            ToFixedPoint(demand_mbps / capacity_mbps);
      }
      util::ParallelFor(runners.size(), threads,
                        [&](int /*worker*/, std::size_t s) {
                          runners[s]->ApplyPhase(tick, multipliers);
                        });
    }
  }
  util::ParallelFor(
      runners.size(), threads,
      [&](int /*worker*/, std::size_t s) { runners[s]->Finish(); });

  // Merge in shard order. Every field is an integer sum, so the result is
  // also independent of this order — and of the shard count itself.
  FleetSummary summary;
  summary.users = config.users;
  summary.ticks = ctx.ticks;
  summary.regions.resize(ctx.region_count);
  for (std::size_t r = 0; r < ctx.region_count; ++r) {
    RegionStats& stats = summary.regions[r];
    stats.name = config.regions[r].name;
    stats.peak_live = region_ticks[r].peak_live;
    stats.congested_ticks = region_ticks[r].congested_ticks;
    stats.multiplier_fp_sum = region_ticks[r].multiplier_fp_sum;
    stats.utilization_fp_sum = region_ticks[r].utilization_fp_sum;
  }
  const int sample_every = std::max(config.live_sample_every_ticks, 1);
  const auto samples = static_cast<std::size_t>(
      (ctx.ticks + sample_every - 1) / sample_every);
  summary.live_samples.assign(samples, 0);
  for (const auto& runner : runners) {
    const ShardAccum& a = runner->Accum();
    summary.sessions_started += a.sessions_started;
    summary.sessions_completed += a.sessions_completed;
    summary.sessions_abandoned += a.sessions_abandoned;
    summary.rejoins += a.rejoins;
    summary.decisions += a.decisions;
    summary.clamped_lookups += a.clamped_lookups;
    summary.live_at_end += a.live_at_end;
    summary.slo_violations += a.slo_violations;
    summary.arena_bytes += a.arena_bytes;
    summary.qoe_fp += a.qoe_fp;
    summary.utility_fp += a.utility_fp;
    summary.rebuffer_ratio_fp += a.rebuffer_ratio_fp;
    summary.switch_rate_fp += a.switch_rate_fp;
    summary.watch_s_fp += a.watch_s_fp;
    summary.session_checksum += a.session_checksum;
    for (std::size_t b = 0; b < kQoeHistBuckets; ++b) {
      summary.qoe_hist[b] += a.qoe_hist[b];
    }
    for (std::size_t r = 0; r < ctx.region_count; ++r) {
      RegionStats& stats = summary.regions[r];
      const RegionShardAccum& shard_region = a.regions[r];
      stats.sessions_started += shard_region.sessions_started;
      stats.sessions_ended +=
          shard_region.sessions_completed + shard_region.sessions_abandoned;
      stats.sessions_abandoned += shard_region.sessions_abandoned;
      stats.live_at_end += shard_region.live_at_end;
      stats.qoe_fp += shard_region.qoe_fp;
      for (std::size_t b = 0; b < kQoeHistBuckets; ++b) {
        stats.qoe_hist[b] += shard_region.qoe_hist[b];
      }
    }
    SODA_ENSURE(a.live_samples.size() == samples,
                "shard live-sample series length mismatch");
    for (std::size_t i = 0; i < samples; ++i) {
      summary.live_samples[i] += a.live_samples[i];
    }
  }
  summary.sessions_ended =
      summary.sessions_completed + summary.sessions_abandoned;
  for (const std::uint64_t live : summary.live_samples) {
    summary.peak_live = std::max(summary.peak_live, live);
  }
  summary.live_state_bytes = summary.peak_live * SessionArena::kBytesPerSession;

  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("fleet.runs").Add();
  reg.GetCounter("fleet.sessions_started").Add(summary.sessions_started);
  reg.GetCounter("fleet.sessions_ended").Add(summary.sessions_ended);
  reg.GetCounter("fleet.rejoins").Add(summary.rejoins);
  reg.GetCounter("fleet.decisions").Add(summary.decisions);
  reg.GetCounter("fleet.clamped_lookups").Add(summary.clamped_lookups);
  reg.GetCounter("fleet.slo_violations").Add(summary.slo_violations);
  reg.GetGauge("fleet.live_sessions")
      .Set(static_cast<double>(summary.live_at_end));
  reg.GetGauge("fleet.peak_live_sessions")
      .Set(static_cast<double>(summary.peak_live));
  reg.GetGauge("fleet.qoe_mean").Set(summary.MeanQoe());
  reg.GetGauge("fleet.rebuffer_slo_violation_fraction")
      .Set(summary.SloViolationFraction());
  reg.GetGauge("fleet.arena_bytes")
      .Set(static_cast<double>(summary.arena_bytes));
  reg.GetGauge("fleet.live_state_bytes")
      .Set(static_cast<double>(summary.live_state_bytes));
  for (const RegionStats& stats : summary.regions) {
    const std::string prefix = "fleet.region." + stats.name + ".";
    reg.GetCounter(prefix + "sessions_started").Add(stats.sessions_started);
    reg.GetCounter(prefix + "sessions_ended").Add(stats.sessions_ended);
    reg.GetCounter(prefix + "congested_ticks")
        .Add(static_cast<std::uint64_t>(stats.congested_ticks));
    reg.GetGauge(prefix + "live_sessions")
        .Set(static_cast<double>(stats.live_at_end));
    reg.GetGauge(prefix + "peak_live_sessions")
        .Set(static_cast<double>(stats.peak_live));
    reg.GetGauge(prefix + "utilization_mean")
        .Set(stats.MeanUtilization(summary.ticks));
    reg.GetGauge(prefix + "congestion_multiplier_mean")
        .Set(stats.MeanMultiplier(summary.ticks));
    reg.GetGauge(prefix + "qoe_mean").Set(stats.MeanQoe());
    reg.GetGauge(prefix + "abandon_fraction").Set(stats.AbandonFraction());
  }
  return summary;
}

}  // namespace soda::fleet
