// serve-replay: the decision daemon under a closed-loop client. One default
// quantized tenant serves 4096 Puffer-emulated sessions; each step is one
// DecideBatch over every session at 4 threads, then one IngestBatch of the
// segment/rebuffer feedback the client derives from the decided rungs. The
// client advances each session with a net::TraceCursor, so generator cost
// stays small and is reported (serve.client_share) rather than hidden.
#include <memory>
#include <string>

#include "common.hpp"
#include "core/batch_lookup.hpp"
#include "core/cost_model.hpp"
#include "net/dataset.hpp"
#include "net/trace_cursor.hpp"
#include "serve/decision_service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace serve = soda::serve;

constexpr std::size_t kSessions = 4096;
constexpr int kThreads = 4;
// Steps covered by the rung digest.
constexpr std::int64_t kPinnedSteps = 256;
// Steps per timing round, and the rounds every run completes; peak_rss_mb
// is read after them, so it does not depend on how many more rounds the run
// time allowed.
constexpr int kStepsPerRound = 16;
constexpr std::int64_t kPrefixRounds = 64;
// A run stops at the run time or after this many steps, whichever comes
// first: every 4-thread DecideBatch leaves ~100 KB of metric shards behind,
// so the cap bounds the process at ~0.7 GB. Rounds are paced to spread the
// steps over the run time.
constexpr std::int64_t kMaxSteps = 6144;
// Quiet rounds: one in 6, so a full run's 384 rounds leave 64 quiet rounds
// and 1,024 DecideBatch latency samples, 10 of them beyond p99.
constexpr std::size_t kQuietDivisor = 6;
constexpr double kSegmentS = 2.0;
constexpr double kMaxBufferS = 20.0;

struct Client {
  Client(std::string session_id, const soda::net::ThroughputTrace& trace)
      : id(std::move(session_id)), cursor(trace) {}
  std::string id;
  soda::net::TraceCursor cursor;
  double clock_s = 0.0;
  double buffer_s = 0.0;
  std::int16_t prev_rung = -1;  // last rung fed back; -1 after startup
};

// One client per corpus session, each announced to the service by a startup
// event.
std::vector<Client> StartClients(serve::DecisionService& service,
                                 serve::TenantId tenant,
                                 const std::vector<soda::net::ThroughputTrace>& corpus) {
  std::vector<Client> clients;
  clients.reserve(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    clients.emplace_back("sess-" + std::to_string(i), corpus[i]);
    service.Ingest({.type = serve::EventType::kStartup,
                    .tenant = tenant,
                    .session_id = clients.back().id});
  }
  return clients;
}

void FillRequests(const std::vector<Client>& clients, serve::TenantId tenant,
                  std::vector<serve::DecisionRequest>& requests) {
  for (std::size_t i = 0; i < clients.size(); ++i) {
    requests[i] = {.tenant = tenant,
                   .session_id = clients[i].id,
                   .buffer_s = clients[i].buffer_s};
  }
}

// Downloads the decided segment at the client's trace throughput, appends
// the segment (and any rebuffer) feedback to `events` and advances the
// client's buffer and clock.
void AdvanceClient(Client& c, const serve::Decision& d, serve::TenantId tenant,
                   const soda::media::BitrateLadder& ladder,
                   std::vector<serve::SessionEvent>& events) {
  const double megabits = ladder.BitrateMbps(d.rung) * kSegmentS;
  const double mbps = c.cursor.ThroughputAt(c.clock_s);
  const double download_s = mbps > 0.0 ? megabits / mbps : kSegmentS * 4.0;
  events.push_back({.type = serve::EventType::kSegmentDownloaded,
                    .tenant = tenant,
                    .session_id = c.id,
                    .rung = d.rung,
                    .duration_s = download_s,
                    .megabits = megabits});
  const double stall = download_s > c.buffer_s ? download_s - c.buffer_s : 0.0;
  if (stall > 0.0) {
    events.push_back({.type = serve::EventType::kRebuffer,
                      .tenant = tenant,
                      .session_id = c.id,
                      .duration_s = stall});
  }
  c.prev_rung = static_cast<std::int16_t>(d.rung);
  c.buffer_s = std::min(std::max(c.buffer_s - download_s, 0.0) + kSegmentS,
                        kMaxBufferS);
  c.clock_s += download_s + stall;
  if (c.clock_s > c.cursor.Trace().DurationS()) {  // loop the trace
    c.clock_s = 0.0;
    c.cursor.Rebind(c.cursor.Trace());
  }
}

// Session i's term of the rung digest at `step`. The digest is the sum of
// the terms, so it does not depend on the order decisions are made in.
std::uint64_t RungTerm(std::size_t i, std::int64_t step, soda::media::Rung rung) {
  return Mix64(Fold(Fold(i, static_cast<std::uint64_t>(step)),
                    static_cast<std::uint64_t>(rung)));
}

// The rung digest of the first kPinnedSteps steps, replayed untimed on a
// fresh service with fresh clients: what an unpinned seed's timed run must
// reproduce. The tenant adopts the tables set-up left in the caches.
std::uint64_t ReferenceDigest(const serve::TenantConfig& config, std::uint64_t seed,
                              const std::vector<soda::net::ThroughputTrace>& corpus) {
  serve::DecisionService service(serve::ServeConfig{.base_seed = seed});
  const serve::TenantId tenant = service.RegisterTenant(config);
  std::vector<Client> clients = StartClients(service, tenant, corpus);
  std::vector<serve::DecisionRequest> requests(clients.size());
  std::vector<serve::Decision> decisions(clients.size());
  std::vector<serve::SessionEvent> events;
  std::uint64_t digest = 0;
  for (std::int64_t step = 0; step < kPinnedSteps; ++step) {
    FillRequests(clients, tenant, requests);
    service.DecideBatch(requests, decisions, kThreads);
    events.clear();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      digest += RungTerm(i, step, decisions[i].rung);
      AdvanceClient(clients[i], decisions[i], tenant, config.ladder, events);
    }
    service.IngestBatch(events);
  }
  return digest;
}

// The tenant's kernel, adopted from the process-wide cache under the key
// DecisionService::RegisterTenant derives (same derivation, repeated here
// because the service does not expose its kernel).
soda::core::BatchKernelPtr TenantKernel(const serve::TenantConfig& tenant,
                                        soda::core::QuantizedTablePtr table) {
  const auto& cc = tenant.controller;
  soda::core::CostModelConfig mc;
  mc.weights = cc.base.weights;
  mc.dt_s = tenant.segment_seconds;
  mc.max_buffer_s = tenant.max_buffer_s;
  mc.target_buffer_s =
      cc.base.target_buffer_s.value_or(cc.base.target_fraction * tenant.max_buffer_s);
  mc.distortion = cc.base.distortion;
  const std::string key = soda::core::DecisionTableKey(
      tenant.ladder, mc, cc.base, cc.buffer_points, cc.throughput_points,
      cc.min_mbps, cc.max_mbps);
  return soda::core::SharedBatchKernel(key, std::move(table), cc.lookup);
}

// Per-phase accumulators of the step loop.
struct Phase {
  std::vector<Round> rounds;
  std::uint64_t decisions = 0;
  std::uint64_t events = 0;
  std::int64_t decide_ns = 0;
  std::int64_t ingest_ns = 0;
  // Traced extras.
  double decide_cpu_s = 0.0;
  std::int64_t kernel_ns = 0;
  std::uint64_t kernel_lookups = 0;
  std::int64_t fallback_ns = 0;
  std::uint64_t fallback_calls = 0;
};

}  // namespace

Result RunServeReplay(const Options& options) {
  serve::TenantConfig tenant_config(soda::media::YoutubeHfr4kLadder());
  tenant_config.segment_seconds = kSegmentS;
  tenant_config.max_buffer_s = kMaxBufferS;
  tenant_config.quantized = true;
  const soda::media::BitrateLadder& ladder = tenant_config.ladder;

  Result result;
  result.params = {{"sessions", std::to_string(kSessions)},
                   {"threads", std::to_string(kThreads)},
                   {"dataset", "puffer"},
                   {"table", "quantized"},
                   {"pinned_steps", std::to_string(kPinnedSteps)},
                   {"max_steps", std::to_string(kMaxSteps)},
                   {"max_buffer_s", "20"},
                   {"segment_s", "2"}};

  std::vector<soda::net::ThroughputTrace> corpus;
  std::unique_ptr<serve::DecisionService> service;
  serve::TenantId tenant = 0;
  std::vector<Client> clients;
  soda::core::BatchKernelPtr kernel;
  std::vector<double> gen_ms;
  std::vector<double> build_ms;
  bool kernel_adopted = true;

  const double setup_s = MedianSetupSeconds([&] {
    clients.clear();
    service.reset();
    kernel.reset();
    ClearDecisionCaches();

    const std::int64_t start = NowNs();
    soda::Rng rng(options.seed);
    corpus = soda::net::DatasetEmulator(soda::net::DatasetKind::kPuffer)
                 .MakeSessions(kSessions, rng);
    const std::int64_t generated = NowNs();
    gen_ms.push_back(static_cast<double>(generated - start) * 1e-6);

    service = std::make_unique<serve::DecisionService>(
        serve::ServeConfig{.base_seed = options.seed});
    tenant = service->RegisterTenant(tenant_config);
    build_ms.push_back(static_cast<double>(NowNs() - generated) * 1e-6);

    const std::size_t kernels = soda::core::BatchKernelCacheSize();
    kernel = TenantKernel(tenant_config, service->Tables(tenant).quantized);
    kernel_adopted = soda::core::BatchKernelCacheSize() == kernels;

    clients = StartClients(*service, tenant, corpus);
  });
  const CacheSizes warm = CurrentCacheSizes();

  std::vector<serve::DecisionRequest> requests(kSessions);
  std::vector<serve::Decision> decisions(kSessions);
  std::vector<serve::SessionEvent> events;
  events.reserve(kSessions * 2);
  std::vector<double> replay_buffer, replay_mbps;
  std::vector<std::int16_t> replay_prev, replay_out;

  std::uint64_t digest = 0;
  std::uint64_t table_hits = 0, fallbacks = 0, shadow_checks = 0;
  std::int64_t step = 0;
  const std::int64_t start = NowNs();
  const auto run_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  double rss_at_tenth = -1.0;

  std::vector<double> decide_us;
  double prefix_rss_mb = 0.0;
  // One closed-loop step: decide every session, advance the clients, ingest
  // their feedback. Adds its timings to `phase` and `round`.
  const auto run_step = [&](SpanRecorder* spans, Phase& phase, Round& round) {
    const bool traced = spans != nullptr;
    const std::int64_t loop_start = NowNs();
    ScopedSpan step_span(spans, "serve.step", static_cast<std::uint64_t>(step));
    {
      ScopedSpan span(spans, "client.requests", step);
      FillRequests(clients, tenant, requests);
    }

    const double cpu0 = traced ? ProcessCpuSeconds() : 0.0;
    const std::int64_t t0 = NowNs();
    {
      ScopedSpan span(spans, "serve.decide_batch", step);
      service->DecideBatch(requests, decisions, kThreads);
    }
    const std::int64_t t1 = NowNs();
    if (traced) phase.decide_cpu_s += ProcessCpuSeconds() - cpu0;
    phase.decide_ns += t1 - t0;
    decide_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    phase.decisions += kSessions;

    if (traced) {
      // Replay the table-served triples through the tenant's kernel.
      replay_buffer.clear();
      replay_mbps.clear();
      replay_prev.clear();
      for (std::size_t i = 0; i < kSessions; ++i) {
        if (!decisions[i].from_table) continue;
        replay_buffer.push_back(requests[i].buffer_s);
        replay_mbps.push_back(static_cast<double>(decisions[i].predicted_mbps));
        replay_prev.push_back(clients[i].prev_rung);
      }
      replay_out.resize(replay_buffer.size());
      {
        ScopedSpan span(spans, "core.kernel.replay", step);
        const std::int64_t k0 = NowNs();
        kernel->LookupBatch(replay_buffer, replay_mbps, replay_prev, replay_out);
        phase.kernel_ns += NowNs() - k0;
      }
      phase.kernel_lookups += replay_buffer.size();
      // Re-issue the fallback requests one at a time; decisions are pure
      // reads, so each must reproduce its batched answer.
      for (std::size_t i = 0; i < kSessions; ++i) {
        if (!decisions[i].solver_fallback) continue;
        ScopedSpan span(spans, "serve.fallback.reissue", step);
        const std::int64_t f0 = NowNs();
        const serve::Decision again = service->DecideOne(requests[i]);
        phase.fallback_ns += NowNs() - f0;
        ++phase.fallback_calls;
        if (again.rung != decisions[i].rung) ++result.failed;
      }
    }

    events.clear();
    {
      ScopedSpan span(spans, "client.advance", step);
      for (std::size_t i = 0; i < kSessions; ++i) {
        const serve::Decision& d = decisions[i];
        if (step < kPinnedSteps) digest += RungTerm(i, step, d.rung);
        table_hits += d.from_table ? 1 : 0;
        fallbacks += d.solver_fallback ? 1 : 0;
        shadow_checks += d.shadow_checked ? 1 : 0;
        if (d.shadow_mismatch) ++result.failed;
        AdvanceClient(clients[i], d, tenant, ladder, events);
      }
    }

    const std::int64_t t2 = NowNs();
    {
      ScopedSpan span(spans, "serve.ingest_batch", step);
      service->IngestBatch(events);
    }
    const std::int64_t t3 = NowNs();
    phase.ingest_ns += t3 - t2;
    phase.events += events.size();
    ++step;
    round.wall_s += static_cast<double>(t3 - loop_start) * 1e-9;
    round.busy_s += static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-9;
    if (rss_at_tenth < 0.0 && t3 - start >= run_ns / 10) rss_at_tenth = PeakRssMb();
  };

  // Runs rounds of steps (at least one) until `deadline` or `max_steps` in
  // all, and at least kPrefixRounds rounds in all.
  const auto run_steps = [&](std::int64_t deadline, std::int64_t max_steps,
                             SpanRecorder* spans) {
    Phase phase;
    do {
      PaceTo(start, run_ns, static_cast<std::uint64_t>(step), kMaxSteps);
      Round round;
      round.samples_begin = decide_us.size();
      const double cpu_start = ProcessCpuSeconds();
      for (int k = 0; k < kStepsPerRound; ++k) run_step(spans, phase, round);
      round.cpu_s = ProcessCpuSeconds() - cpu_start;
      round.decisions = static_cast<double>(kStepsPerRound * kSessions);
      round.sessions = round.decisions;
      round.samples_end = decide_us.size();
      phase.rounds.push_back(round);
      if (step == kPrefixRounds * kStepsPerRound) prefix_rss_mb = PeakRssMb();
    } while (step < kPrefixRounds * kStepsPerRound ||
             (NowNs() < deadline && step < max_steps));
    return phase;
  };

  const Phase plain = options.trace
                          ? run_steps(start + run_ns / 3, kMaxSteps / 3, nullptr)
                          : run_steps(start + run_ns, kMaxSteps, nullptr);
  SpanRecorder spans;
  const Phase traced =
      options.trace ? run_steps(start + run_ns, kMaxSteps, &spans) : Phase{};
  const std::uint64_t decided = plain.decisions + traced.decisions;
  result.attempted = decided;
  result.digest = digest;

  // Pure-read check on the final state: the batched and one-at-a-time paths
  // must agree on every session.
  FillRequests(clients, tenant, requests);
  service->DecideBatch(requests, decisions, kThreads);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const serve::Decision one = service->DecideOne(requests[i]);
    const serve::Decision& batch = decisions[i];
    if (one.rung != batch.rung || one.from_table != batch.from_table ||
        one.solver_fallback != batch.solver_fallback ||
        one.predicted_mbps != batch.predicted_mbps) {
      ++result.failed;
    }
  }
  result.attempted += kSessions;

  auto& m = result.metrics;
  const auto seconds = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
  const QuietSummary quiet = SummarizeQuietRounds(plain.rounds, decide_us, kQuietDivisor);
  m["setup_s"] = setup_s;
  m["sessions_per_s"] = quiet.sessions_per_s;
  m["decisions_per_s"] = quiet.decisions_per_s;
  m["decide_p50_us"] = quiet.p50_us;
  m["decide_p99_us"] = quiet.p99_us;
  m["cpu_s_per_mdecision"] = quiet.cpu_s_per_mdecision;
  m["peak_rss_mb"] = prefix_rss_mb;
  m["net.corpus_gen_ms"] = Median(gen_ms);
  m["core.tables.build_ms"] = Median(build_ms);
  m["serve.fallback_share"] = static_cast<double>(fallbacks) / static_cast<double>(decided);
  m["serve.table_hit_share"] = static_cast<double>(table_hits) / static_cast<double>(decided);
  m["serve.shadow_share"] = static_cast<double>(shadow_checks) / static_cast<double>(decided);
  double loop_s = 0.0;
  for (const Round& round : plain.rounds) loop_s += round.wall_s;
  m["serve.client_share"] = 1.0 - seconds(plain.decide_ns + plain.ingest_ns) / loop_s;
  if (options.trace) {
    const double n = static_cast<double>(traced.decisions);
    m["serve.ingest.ns_per_event"] =
        static_cast<double>(traced.ingest_ns) / static_cast<double>(traced.events);
    m["serve.decide.ns_per_decision"] = static_cast<double>(traced.decide_ns) / n;
    m["serve.decide.cpu_per_wall"] = traced.decide_cpu_s / seconds(traced.decide_ns);
    m["serve.fallback.ns"] =
        traced.fallback_calls > 0 ? static_cast<double>(traced.fallback_ns) /
                                        static_cast<double>(traced.fallback_calls)
                                  : 0.0;
    m["core.kernel.ns_per_lookup"] = static_cast<double>(traced.kernel_ns) /
                                     static_cast<double>(traced.kernel_lookups);
    m["core.kernel.share_of_decide"] =
        static_cast<double>(traced.kernel_ns) / static_cast<double>(traced.decide_ns);
    m["trace_overhead"] = TraceOverhead(plain.rounds, traced.rounds);
    if (!options.trace_out.empty() && !spans.Write(options.trace_out)) ++result.failed;
  }
  m["serve.rss_growth_mb"] = PeakRssMb() - rss_at_tenth;

  // The rung digest must equal the pin or, for an unpinned seed, a fresh
  // replay of the same steps.
  const std::uint64_t expected = options.expect_digest
                                     ? *options.expect_digest
                                     : ReferenceDigest(tenant_config, options.seed, corpus);
  if (digest != expected) result.failed += kPinnedSteps * kSessions;

  result.params["steps"] = std::to_string(step);
  result.params["quiet_rounds"] = std::to_string(quiet.rounds);
  result.params["quiet_latency_samples"] = std::to_string(quiet.samples);
  result.warm_caches_held = kernel_adopted && CurrentCacheSizes() == warm;
  return result;
}

}  // namespace perfbench
