// fleet-coupled: the population simulator's closed-loop regional tick. Each
// unit of work is one fleet::RunFleet call over 4 uniform capacity regions,
// 64 shards and 4 threads, with pool capacity at the 50 Gbps point of the
// fleet_region_capacity sweep (some ticks congest, not all). Every tick is
// two fork/joins (parallel demand, serial region reduce, parallel apply)
// around the batch kernel and the AR(1)/engagement step. Calls repeat until
// the run time is spent; every call must reproduce the first one bit for
// bit (the fleet's determinism contract).
#include <string>

#include "common.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "serve/decision_service.hpp"

namespace perfbench {
namespace {

namespace fleet = soda::fleet;

constexpr std::uint64_t kUsers = 60000;
constexpr double kHorizonS = 600.0;
constexpr int kShards = 64;
constexpr int kRegions = 4;
constexpr double kRegionMbps = 50000.0;
constexpr int kThreads = 4;
// Calls every run completes; peak_rss_mb is read after them, so it does not
// depend on how many more calls the run time allowed.
constexpr std::uint64_t kPrefixCalls = 8;
// A run stops at the run time or after this many calls, whichever comes
// first: every tick's 4-thread fork/join leaves ~80 KB of metric shards
// behind, so the cap bounds the process at ~0.7 GB. Calls are paced to
// spread them over the run time.
constexpr std::uint64_t kMaxCalls = 24;
// Quiet rounds: one call in 8, so a full run's 24 calls leave 3.
constexpr std::size_t kQuietDivisor = 8;

std::uint64_t BatchLookups() {
  const soda::obs::MetricsSnapshot snapshot =
      soda::obs::MetricsRegistry::Global().Snapshot();
  const auto it = snapshot.counters.find("core.batch.lookups");
  return it == snapshot.counters.end() ? 0 : it->second;
}

struct Phase {
  std::vector<Round> rounds;  // one per call
  std::int64_t ticks = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

}  // namespace

Result RunFleetCoupled(const Options& options) {
  fleet::FleetConfig config;
  config.base_seed = options.seed;
  config.users = kUsers;
  config.arrival.horizon_s = kHorizonS;
  config.shards = kShards;
  config.regions = fleet::MakeUniformRegions(kRegions, kRegionMbps);

  Result result;
  result.params = {{"users", std::to_string(kUsers)},
                   {"horizon_s", "600"},
                   {"shards", std::to_string(kShards)},
                   {"regions", std::to_string(kRegions)},
                   {"region_mbps", "50000"},
                   {"threads", std::to_string(kThreads)},
                   {"max_calls", std::to_string(kMaxCalls)}};

  // Set-up warms the shared caches through a serving tenant registered with
  // the fleet's own geometry, so RunFleet only adopts them.
  std::vector<double> build_ms;
  const double setup_s = MedianSetupSeconds([&] {
    ClearDecisionCaches();
    const std::int64_t start = NowNs();
    soda::serve::DecisionService warmer;
    soda::serve::TenantConfig tenant(config.ladder);
    tenant.segment_seconds = config.segment_seconds;
    tenant.max_buffer_s = config.max_buffer_s;
    tenant.controller = config.controller;
    tenant.quantized = config.quantized;
    (void)warmer.RegisterTenant(tenant);
    build_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
  });
  const CacheSizes warm = CurrentCacheSizes();

  fleet::FleetSummary first;
  double lookups_per_decision = 0.0;
  double prefix_rss_mb = 0.0;
  std::uint64_t calls = 0;
  std::vector<double> tick_us;  // per call: wall / ticks
  const std::int64_t start = NowNs();
  const auto run_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  const auto run_calls = [&](std::int64_t deadline, std::uint64_t max_calls,
                             SpanRecorder* spans) {
    Phase phase;
    do {
      PaceTo(start, run_ns, calls, kMaxCalls);
      const bool count_lookups = spans != nullptr && phase.rounds.empty();
      const std::uint64_t lookups_before = count_lookups ? BatchLookups() : 0;
      const double cpu0 = ProcessCpuSeconds();
      const std::int64_t t0 = NowNs();
      fleet::FleetSummary summary;
      {
        ScopedSpan span(spans, "fleet.run", calls);
        summary = fleet::RunFleet(config, kThreads);
      }
      const std::int64_t t1 = NowNs();
      const double cpu_s = ProcessCpuSeconds() - cpu0;
      if (count_lookups) {
        lookups_per_decision = static_cast<double>(BatchLookups() - lookups_before) /
                               static_cast<double>(summary.decisions);
      }

      if (result.attempted == 0) {
        first = summary;
        result.digest = summary.session_checksum;
        if (options.expect_digest && *options.expect_digest != summary.session_checksum) {
          result.failed += summary.decisions;
        }
      } else if (!(summary == first)) {
        result.failed += summary.decisions;
      }
      result.attempted += summary.decisions;

      Round round;
      round.wall_s = static_cast<double>(t1 - t0) * 1e-9;
      round.busy_s = round.wall_s;
      round.cpu_s = cpu_s;
      round.decisions = static_cast<double>(summary.decisions);
      round.sessions = static_cast<double>(summary.sessions_started);
      round.samples_begin = tick_us.size();
      tick_us.push_back(round.wall_s * 1e6 / static_cast<double>(summary.ticks));
      round.samples_end = tick_us.size();
      phase.rounds.push_back(round);
      phase.wall_s += round.wall_s;
      phase.cpu_s += cpu_s;
      phase.ticks += summary.ticks;
      if (++calls == kPrefixCalls) prefix_rss_mb = PeakRssMb();
    } while (calls < kPrefixCalls || (NowNs() < deadline && calls < max_calls));
    return phase;
  };

  const Phase plain = options.trace
                          ? run_calls(start + run_ns / 3, kMaxCalls / 2, nullptr)
                          : run_calls(start + run_ns, kMaxCalls, nullptr);
  SpanRecorder spans;
  const Phase traced =
      options.trace ? run_calls(start + run_ns, kMaxCalls, &spans) : Phase{};

  auto& m = result.metrics;
  const QuietSummary quiet = SummarizeQuietRounds(plain.rounds, tick_us, kQuietDivisor);
  m["setup_s"] = setup_s;
  m["sessions_per_s"] = quiet.sessions_per_s;
  m["decisions_per_s"] = quiet.decisions_per_s;
  m["decide_p50_us"] = quiet.p50_us;
  m["decide_p99_us"] = quiet.p99_us;
  m["cpu_s_per_mdecision"] = quiet.cpu_s_per_mdecision;
  m["peak_rss_mb"] = prefix_rss_mb;
  m["core.tables.build_ms"] = Median(build_ms);

  std::int64_t congested = 0;
  for (const fleet::RegionStats& region : first.regions) congested += region.congested_ticks;
  const auto decisions = static_cast<double>(first.decisions);
  m["fleet.live_state_mb"] = static_cast<double>(first.live_state_bytes) / 1e6;
  m["fleet.arena_mb"] = static_cast<double>(first.arena_bytes) / 1e6;
  m["fleet.clamped_share"] = static_cast<double>(first.clamped_lookups) / decisions;
  m["fleet.congested_tick_share"] =
      static_cast<double>(congested) / static_cast<double>(first.ticks * kRegions);
  if (options.trace) {
    m["fleet.ns_per_tick"] = traced.wall_s * 1e9 / static_cast<double>(traced.ticks);
    m["fleet.cpu_per_wall"] = traced.cpu_s / traced.wall_s;
    m["fleet.lookups_per_decision"] = lookups_per_decision;
    m["trace_overhead"] = TraceOverhead(plain.rounds, traced.rounds);
    if (!options.trace_out.empty() && !spans.Write(options.trace_out)) ++result.failed;
  }
  result.params["calls"] = std::to_string(calls);
  result.params["quiet_calls"] = std::to_string(quiet.rounds);
  result.params["ticks_per_call"] = std::to_string(first.ticks);
  result.params["decisions_per_call"] = std::to_string(first.decisions);
  result.params["qoe_mean"] = std::to_string(first.MeanQoe());
  result.warm_caches_held = CurrentCacheSizes() == warm;
  return result;
}

}  // namespace perfbench
