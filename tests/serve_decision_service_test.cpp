// serve::DecisionService: bitwise parity with the library controller
// (CachedDecisionController + EmaPredictor), batch-size/thread-count
// invariance, ingest semantics, multi-tenant isolation, and concurrent
// ingest+decide safety.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cached_controller.hpp"
#include "media/bitrate_ladder.hpp"
#include "media/video_model.hpp"
#include "predict/ema.hpp"
#include "serve/decision_service.hpp"
#include "util/rng.hpp"

namespace soda::serve {
namespace {

constexpr double kSegmentS = 2.0;
constexpr double kMaxBufferS = 20.0;

TenantConfig DefaultTenant(bool quantized) {
  TenantConfig config(media::YoutubeHfr4kLadder());
  config.segment_seconds = kSegmentS;
  config.max_buffer_s = kMaxBufferS;
  config.quantized = quantized;
  return config;
}

// Drives the library path (EmaPredictor + CachedDecisionController) and the
// service with the same feedback stream and asserts every decision is
// bit-identical. This is the daemon's core correctness contract: serving is
// a pure re-packaging of the simulated controller, not a reimplementation
// that may drift.
void RunParityReplay(bool quantized) {
  ServeConfig service_config;
  service_config.shadow_check_fraction = 1.0;
  DecisionService service(service_config);
  const TenantId tenant = service.RegisterTenant(DefaultTenant(quantized));

  core::CachedControllerConfig cc;
  cc.quantize = quantized;
  core::CachedDecisionController controller(cc);
  predict::EmaPredictor predictor;
  const media::BitrateLadder ladder = media::YoutubeHfr4kLadder();
  const media::VideoModel video(ladder, {.segment_seconds = kSegmentS});

  const std::string session = "parity-session";
  Rng rng(7);
  media::Rung prev = -1;
  double now_s = 0.0;
  for (int step = 0; step < 400; ++step) {
    // Occasionally leave the servable range to exercise the fallback on
    // both sides (buffer above the table's max).
    const double buffer_s =
        step % 37 == 0 ? kMaxBufferS + 3.0 : rng.NextDouble() * kMaxBufferS;

    abr::Context context;
    context.now_s = now_s;
    context.buffer_s = buffer_s;
    context.prev_rung = prev;
    context.segment_index = step;
    context.playing = true;
    context.max_buffer_s = kMaxBufferS;
    context.video = &video;
    context.predictor = &predictor;
    const media::Rung expected = controller.ChooseRung(context);

    DecisionRequest request;
    request.tenant = tenant;
    request.session_id = session;
    request.buffer_s = buffer_s;
    const Decision got = service.DecideOne(request);

    ASSERT_EQ(got.rung, expected) << "step " << step << " buffer " << buffer_s;
    if (got.shadow_checked) {
      EXPECT_FALSE(got.shadow_mismatch) << "step " << step;
    }

    // Feed the identical download observation to both predictors.
    const double mbps = 0.5 + 40.0 * rng.NextDouble();
    const double duration_s = 0.3 + 3.0 * rng.NextDouble();
    const double megabits = mbps * duration_s;
    predictor.Observe({now_s, duration_s, megabits});
    SessionEvent event;
    event.type = EventType::kSegmentDownloaded;
    event.tenant = tenant;
    event.session_id = session;
    event.now_s = now_s;
    event.rung = expected;
    event.duration_s = duration_s;
    event.megabits = megabits;
    service.Ingest(event);

    prev = expected;
    now_s += duration_s;
  }
}

TEST(DecisionService, QuantizedParityWithLibraryController) {
  RunParityReplay(/*quantized=*/true);
}

TEST(DecisionService, ExactParityWithLibraryController) {
  RunParityReplay(/*quantized=*/false);
}

TEST(DecisionService, ColdStartServesDefaultEstimate) {
  DecisionService service;
  const TenantId tenant = service.RegisterTenant(DefaultTenant(true));
  DecisionRequest request;
  request.tenant = tenant;
  request.session_id = "never-seen";
  request.buffer_s = 10.0;
  const Decision d = service.DecideOne(request);
  EXPECT_TRUE(d.from_table);
  EXPECT_FLOAT_EQ(d.predicted_mbps, 1.0f);  // predict::kDefaultColdStartMbps
  // Decisions never create sessions; only ingest does.
  EXPECT_EQ(service.ActiveSessions(), 0u);
}

TEST(DecisionService, BufferOutOfRangeFallsBackToSolver) {
  DecisionService service;
  const TenantId tenant = service.RegisterTenant(DefaultTenant(true));
  DecisionRequest request;
  request.tenant = tenant;
  request.session_id = "s";
  request.buffer_s = kMaxBufferS + 5.0;
  const Decision d = service.DecideOne(request);
  EXPECT_TRUE(d.solver_fallback);
  EXPECT_FALSE(d.from_table);
  EXPECT_GE(d.rung, 0);
  EXPECT_LT(d.rung, media::YoutubeHfr4kLadder().Count());
}

TEST(DecisionService, StartupClearsPreviousRungButKeepsEma) {
  DecisionService service;
  const TenantId tenant = service.RegisterTenant(DefaultTenant(true));

  SessionEvent down;
  down.type = EventType::kSegmentDownloaded;
  down.tenant = tenant;
  down.session_id = "s";
  down.rung = 4;
  down.duration_s = 2.0;
  down.megabits = 40.0;  // 20 Mb/s
  service.Ingest(down);

  DecisionRequest request;
  request.tenant = tenant;
  request.session_id = "s";
  request.buffer_s = 12.0;
  const Decision before = service.DecideOne(request);
  EXPECT_GT(before.predicted_mbps, 1.0f);  // EMA has seen 20 Mb/s

  SessionEvent startup;
  startup.type = EventType::kStartup;
  startup.tenant = tenant;
  startup.session_id = "s";
  service.Ingest(startup);
  const Decision after = service.DecideOne(request);
  // Network knowledge survives the restart...
  EXPECT_EQ(after.predicted_mbps, before.predicted_mbps);
  // ...and the decision now prices no previous rung: it must equal a fresh
  // session's decision under the same EMA state.
  SessionEvent fresh = down;
  fresh.session_id = "fresh";
  fresh.rung = -1;  // no committed rung
  service.Ingest(fresh);
  DecisionRequest fresh_request = request;
  fresh_request.session_id = "fresh";
  EXPECT_EQ(after.rung, service.DecideOne(fresh_request).rung);
}

TEST(DecisionService, ThroughputSamplesMoveTheEstimate) {
  DecisionService service;
  const TenantId tenant = service.RegisterTenant(DefaultTenant(true));
  SessionEvent sample;
  sample.type = EventType::kThroughputSample;
  sample.tenant = tenant;
  sample.session_id = "s";
  sample.duration_s = 4.0;
  sample.mbps = 30.0;
  service.Ingest(sample);
  DecisionRequest request;
  request.tenant = tenant;
  request.session_id = "s";
  request.buffer_s = 10.0;
  const Decision d = service.DecideOne(request);
  EXPECT_GT(d.predicted_mbps, 5.0f);
  EXPECT_LE(d.predicted_mbps, 30.0f);
}

// The determinism contract: per-session results are bit-identical for any
// batch partitioning and any thread count.
TEST(DecisionService, ResultsInvariantAcrossBatchSizesAndThreads) {
  DecisionService service;
  const TenantId tenant = service.RegisterTenant(DefaultTenant(true));

  constexpr int kSessions = 64;
  std::vector<std::string> ids;
  Rng rng(11);
  for (int i = 0; i < kSessions; ++i) {
    ids.push_back("sess-" + std::to_string(i));
    // Distinct histories per session.
    const int events = 1 + static_cast<int>(rng.UniformInt(5));
    for (int e = 0; e < events; ++e) {
      SessionEvent down;
      down.type = EventType::kSegmentDownloaded;
      down.tenant = tenant;
      down.session_id = ids.back();
      down.rung = static_cast<media::Rung>(rng.UniformInt(6));
      down.duration_s = 0.5 + 2.0 * rng.NextDouble();
      down.megabits = down.duration_s * (1.0 + 50.0 * rng.NextDouble());
      service.Ingest(down);
    }
  }

  std::vector<DecisionRequest> requests(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    requests[i].tenant = tenant;
    requests[i].session_id = ids[i];
    requests[i].buffer_s = 0.3 * static_cast<double>(i);
  }

  std::vector<Decision> baseline(kSessions);
  service.DecideBatch(requests, baseline, /*threads=*/1);

  for (const int threads : {1, 2, 4, 7}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{kSessions}}) {
      std::vector<Decision> out(kSessions);
      for (std::size_t begin = 0; begin < requests.size(); begin += batch) {
        const std::size_t n = std::min(batch, requests.size() - begin);
        service.DecideBatch(
            std::span<const DecisionRequest>(requests).subspan(begin, n),
            std::span<Decision>(out).subspan(begin, n), threads);
      }
      for (int i = 0; i < kSessions; ++i) {
        ASSERT_EQ(out[i].rung, baseline[i].rung)
            << "i=" << i << " threads=" << threads << " batch=" << batch;
        ASSERT_EQ(out[i].predicted_mbps, baseline[i].predicted_mbps);
        ASSERT_EQ(out[i].shadow_checked, baseline[i].shadow_checked)
            << "shadow sampling must not depend on batching";
      }
    }
  }
}

TEST(DecisionService, TenantsAreIsolated) {
  DecisionService service;
  const TenantId a = service.RegisterTenant(DefaultTenant(true));
  TenantConfig small(media::BitrateLadder({0.5, 2.0, 8.0}));
  small.segment_seconds = kSegmentS;
  small.max_buffer_s = kMaxBufferS;
  const TenantId b = service.RegisterTenant(small);
  EXPECT_EQ(service.TenantCount(), 2u);

  // The same session id in both tenants, with very different throughput.
  for (const auto& [tenant, mbps] : {std::pair{a, 50.0}, std::pair{b, 1.0}}) {
    SessionEvent sample;
    sample.type = EventType::kThroughputSample;
    sample.tenant = tenant;
    sample.session_id = "shared-id";
    sample.duration_s = 10.0;
    sample.mbps = mbps;
    service.Ingest(sample);
  }
  EXPECT_EQ(service.ActiveSessions(), 2u);

  DecisionRequest request;
  request.session_id = "shared-id";
  request.buffer_s = 12.0;
  request.tenant = a;
  const Decision da = service.DecideOne(request);
  request.tenant = b;
  const Decision db = service.DecideOne(request);
  EXPECT_GT(da.predicted_mbps, 10.0f);
  EXPECT_LT(db.predicted_mbps, 2.0f);
  EXPECT_LT(db.rung, 3);  // within the small ladder

  EXPECT_TRUE(service.RemoveSession(a, "shared-id"));
  EXPECT_FALSE(service.RemoveSession(a, "shared-id"));
  EXPECT_EQ(service.ActiveSessions(), 1u);
}

TEST(DecisionService, TenantsShareTablesByGeometry) {
  core::ClearDecisionTableCacheForTesting();
  core::ClearQuantizedTableCacheForTesting();
  DecisionService service;
  const TenantId a = service.RegisterTenant(DefaultTenant(true));
  const TenantId b = service.RegisterTenant(DefaultTenant(true));
  EXPECT_EQ(service.Tables(a).exact.get(), service.Tables(b).exact.get());
  EXPECT_EQ(service.Tables(a).quantized.get(),
            service.Tables(b).quantized.get());
  EXPECT_EQ(core::DecisionTableCacheSize(), 1u);
  EXPECT_EQ(core::QuantizedTableCacheSize(), 1u);
}

TEST(DecisionService, UnknownTenantThrows) {
  DecisionService service;
  DecisionRequest request;
  request.tenant = 99;
  request.session_id = "s";
  EXPECT_THROW((void)service.DecideOne(request), std::invalid_argument);
}

// "w<writer>-<session>": the session ids the concurrent writers ingest.
std::string WriterSessionId(std::uint64_t writer, std::uint64_t session) {
  std::string id = "w";
  id += std::to_string(writer);
  id += '-';
  id += std::to_string(session);
  return id;
}

// Concurrent ingest and decide across many sessions: exercises the shard
// locking under asan/tsan. Decisions stay within the ladder throughout.
TEST(DecisionService, ConcurrentIngestAndDecide) {
  DecisionService service;
  const TenantId tenant = service.RegisterTenant(DefaultTenant(true));
  constexpr int kWriters = 3;
  constexpr int kSessionsPerWriter = 16;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int wr = 0; wr < kWriters; ++wr) {
    writers.emplace_back([&, wr] {
      Rng rng(100 + static_cast<std::uint64_t>(wr));
      for (int iter = 0; iter < 300; ++iter) {
        SessionEvent down;
        down.type = EventType::kSegmentDownloaded;
        down.tenant = tenant;
        const std::string id = WriterSessionId(
            static_cast<std::uint64_t>(wr), rng.UniformInt(kSessionsPerWriter));
        down.session_id = id;
        down.rung = static_cast<media::Rung>(rng.UniformInt(6));
        down.duration_s = 0.5 + rng.NextDouble();
        down.megabits = down.duration_s * (1.0 + 30.0 * rng.NextDouble());
        service.Ingest(down);
      }
    });
  }
  std::thread reader([&] {
    Rng rng(999);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<DecisionRequest> requests(32);
      std::vector<std::string> ids(32);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::uint64_t writer = rng.UniformInt(kWriters);
        ids[i] = WriterSessionId(writer, rng.UniformInt(kSessionsPerWriter));
        requests[i].tenant = tenant;
        requests[i].session_id = ids[i];
        requests[i].buffer_s = rng.NextDouble() * kMaxBufferS;
      }
      std::vector<Decision> out(requests.size());
      service.DecideBatch(requests, out, 2);
      for (const Decision& d : out) {
        ASSERT_GE(d.rung, 0);
        ASSERT_LT(d.rung, 6);
      }
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_LE(service.ActiveSessions(),
            static_cast<std::size_t>(kWriters * kSessionsPerWriter));
}

TEST(DecisionService, TtlEvictsIdleSessionsUnderChurn) {
  ServeConfig config;
  config.session_shards = 1;  // one shard so the sweep cadence is predictable
  config.session_ttl_s = 30.0;
  DecisionService service(config);
  const TenantId tenant = service.RegisterTenant(DefaultTenant(true));

  const auto sample = [&](const std::string& id, double now_s) {
    SessionEvent event;
    event.type = EventType::kThroughputSample;
    event.tenant = tenant;
    event.session_id = id;
    event.now_s = now_s;
    event.duration_s = 1.0;
    event.mbps = 8.0;
    service.Ingest(event);
  };

  // A churning population: generation g's sessions all go idle before
  // generation g+2 arrives, so eviction must hold the live set near one
  // generation instead of accumulating all of them.
  constexpr int kGenerations = 20;
  constexpr int kPerGeneration = 100;
  for (int g = 0; g < kGenerations; ++g) {
    const double now_s = g * 40.0;  // > TTL apart
    for (int i = 0; i < kPerGeneration; ++i) {
      sample("gen-" + std::to_string(g) + "-" + std::to_string(i), now_s);
    }
  }
  // Without eviction this would be kGenerations * kPerGeneration = 2000;
  // the amortized sweep (every ~quarter of the live map) bounds the live
  // set to a few generations.
  EXPECT_LE(service.ActiveSessions(), 4u * kPerGeneration);

  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snapshot.counters.at("serve.sessions_evicted"),
            static_cast<std::uint64_t>((kGenerations - 5) * kPerGeneration));

  // A session that keeps reporting survives every sweep.
  DecisionService fresh(config);
  const TenantId t2 = fresh.RegisterTenant(DefaultTenant(true));
  const auto keepalive = [&](double now_s) {
    SessionEvent event;
    event.type = EventType::kThroughputSample;
    event.tenant = t2;
    event.session_id = "keepalive";
    event.now_s = now_s;
    event.duration_s = 1.0;
    event.mbps = 8.0;
    fresh.Ingest(event);
  };
  for (int step = 0; step < 100; ++step) keepalive(step * 10.0);
  EXPECT_EQ(fresh.ActiveSessions(), 1u);
}

// Regression: the ingest-time sweep is amortized against a shard's own
// ingest count, so a shard whose clients all vanish never sweeps itself —
// a burst followed by silence used to pin those sessions forever. The
// explicit SweepIdleSessions API must reclaim them, with an exact
// "serve.sessions_evicted" count.
TEST(DecisionService, SweepIdleSessionsReclaimsQuiescentShards) {
  ServeConfig config;
  config.session_shards = 8;  // spread the burst across several shards
  config.session_ttl_s = 30.0;
  DecisionService service(config);
  const TenantId tenant = service.RegisterTenant(DefaultTenant(true));

  const auto sample = [&](const std::string& id, double now_s) {
    SessionEvent event;
    event.type = EventType::kThroughputSample;
    event.tenant = tenant;
    event.session_id = id;
    event.now_s = now_s;
    event.duration_s = 1.0;
    event.mbps = 8.0;
    service.Ingest(event);
  };

  constexpr int kBurst = 50;  // below the per-shard amortized-sweep floor
  for (int i = 0; i < kBurst; ++i) sample("burst-" + std::to_string(i), 0.0);
  ASSERT_EQ(service.ActiveSessions(), static_cast<std::size_t>(kBurst));

  // Before anything expires the sweep is a no-op.
  EXPECT_EQ(service.SweepIdleSessions(20.0), 0u);
  EXPECT_EQ(service.ActiveSessions(), static_cast<std::size_t>(kBurst));

  // One session reports again and stays within TTL of the sweep time.
  sample("burst-0", 90.0);

  // Then: total silence. No further ingests means the amortized sweep can
  // never fire, no matter how stale the rest of the burst gets — only the
  // explicit sweep reclaims it, evicting everything but the fresh session
  // and counting each eviction exactly once.
  const std::uint64_t before = obs::MetricsRegistry::Global()
                                   .Snapshot()
                                   .counters.at("serve.sessions_evicted");
  EXPECT_EQ(service.SweepIdleSessions(100.0),
            static_cast<std::size_t>(kBurst - 1));
  EXPECT_EQ(service.ActiveSessions(), 1u);
  const std::uint64_t after = obs::MetricsRegistry::Global()
                                  .Snapshot()
                                  .counters.at("serve.sessions_evicted");
  EXPECT_EQ(after - before, static_cast<std::uint64_t>(kBurst - 1));

  // Idempotent once the map is clean (the survivor is still within TTL of
  // the advanced shard clock only until it ages out).
  EXPECT_EQ(service.SweepIdleSessions(100.0), 0u);
  EXPECT_EQ(service.SweepIdleSessions(1000.0), 1u);
  EXPECT_EQ(service.ActiveSessions(), 0u);

  // TTL disabled: the explicit sweep is a guaranteed no-op.
  ServeConfig off;
  off.session_ttl_s = 0.0;
  DecisionService no_ttl(off);
  const TenantId t2 = no_ttl.RegisterTenant(DefaultTenant(true));
  SessionEvent event;
  event.type = EventType::kThroughputSample;
  event.tenant = t2;
  event.session_id = "stays";
  event.now_s = 0.0;
  event.duration_s = 1.0;
  event.mbps = 8.0;
  no_ttl.Ingest(event);
  EXPECT_EQ(no_ttl.SweepIdleSessions(1e9), 0u);
  EXPECT_EQ(no_ttl.ActiveSessions(), 1u);
}

TEST(DecisionService, TtlZeroNeverEvicts) {
  ServeConfig config;
  config.session_shards = 1;
  config.session_ttl_s = 0.0;
  DecisionService service(config);
  const TenantId tenant = service.RegisterTenant(DefaultTenant(true));
  for (int i = 0; i < 200; ++i) {
    const std::string id = "s-" + std::to_string(i);
    SessionEvent event;
    event.type = EventType::kThroughputSample;
    event.tenant = tenant;
    event.session_id = id;
    event.now_s = i * 1000.0;  // ancient gaps, but TTL is off
    event.duration_s = 1.0;
    event.mbps = 8.0;
    service.Ingest(event);
  }
  EXPECT_EQ(service.ActiveSessions(), 200u);
}

TEST(DecisionService, RejectsNegativeTtl) {
  ServeConfig config;
  config.session_ttl_s = -1.0;
  EXPECT_THROW(DecisionService service(config), std::invalid_argument);
}

}  // namespace
}  // namespace soda::serve
