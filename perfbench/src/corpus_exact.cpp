// corpus-exact: the paper's own evaluation path. qoe::EvaluateController
// runs the registry's exact "soda" controller with dash.js's EMA predictor
// over a seeded Puffer-like corpus (live, 20 s buffer, YouTube HFR 4K
// ladder, 2 s segments) on one thread, repeatedly, until the run time is
// spent. No table, kernel, serving daemon, fleet or thread fan-out is
// involved: this is the bypass side for every table/threading change.
#include <cmath>
#include <memory>

#include "bench/bench_common.hpp"
#include "common.hpp"
#include "core/registry.hpp"
#include "net/dataset.hpp"
#include "predict/ema.hpp"
#include "qoe/eval.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using soda::abr::Context;
using soda::abr::Controller;
using soda::abr::ControllerPtr;
using soda::abr::DecisionStats;
using soda::predict::DownloadObservation;
using soda::predict::PredictorPtr;
using soda::predict::ThroughputPredictor;

constexpr std::size_t kSessions = 256;
// Passes every run completes; peak_rss_mb is read after them, so it does
// not depend on how many more passes the run time allowed.
constexpr std::uint64_t kPrefixPasses = 16;
// The untraced run times one decision in this many: two clock reads on every
// ~1 us decision would add a few percent to it and 8x the sample memory.
constexpr std::uint64_t kLatencySampleEvery = 8;
// Quiet rounds: one pass in 16. A 30 s run makes ~250 passes of ~4,800
// latency samples each, so ~15 quiet passes.
constexpr std::size_t kQuietDivisor = 16;

// Untraced decorator: counts decisions and samples ChooseRung latency.
class SampledController final : public Controller {
 public:
  SampledController(ControllerPtr inner, std::vector<double>* samples_us,
                    std::uint64_t* decisions)
      : inner_(std::move(inner)), samples_us_(samples_us), decisions_(decisions) {}

  soda::media::Rung ChooseRung(const Context& context) override {
    if ((*decisions_)++ % kLatencySampleEvery != 0) {
      return inner_->ChooseRung(context);
    }
    const std::int64_t start = NowNs();
    const soda::media::Rung rung = inner_->ChooseRung(context);
    samples_us_->push_back(static_cast<double>(NowNs() - start) * 1e-3);
    return rung;
  }
  void Reset() override { inner_->Reset(); }
  std::string Name() const override { return inner_->Name(); }
  DecisionStats LastDecisionStats() const override {
    return inner_->LastDecisionStats();
  }

 private:
  ControllerPtr inner_;
  std::vector<double>* samples_us_;
  std::uint64_t* decisions_;
};

// Everything a traced pass accumulates. `session` is the span group id: a
// fresh predictor is built for every session, so the predictor factory
// advances it.
struct CorpusTrace {
  SpanRecorder spans;
  std::uint64_t session = 0;
  std::uint64_t decisions = 0;
  std::uint64_t predictor_calls = 0;
  double nodes_expanded = 0.0;
  double nodes_pruned = 0.0;
  std::uint64_t warm_starts = 0;
};

class TracedPredictor final : public ThroughputPredictor {
 public:
  TracedPredictor(PredictorPtr inner, CorpusTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  void Observe(const DownloadObservation& observation) override {
    ScopedSpan span(&trace_->spans, "predict.observe", trace_->session);
    ++trace_->predictor_calls;
    inner_->Observe(observation);
  }
  std::vector<double> PredictHorizon(double now_s, int horizon,
                                     double dt_s) override {
    ScopedSpan span(&trace_->spans, "predict.horizon", trace_->session);
    ++trace_->predictor_calls;
    return inner_->PredictHorizon(now_s, horizon, dt_s);
  }
  void Reset() override {
    ScopedSpan span(&trace_->spans, "predict.reset", trace_->session);
    ++trace_->predictor_calls;
    inner_->Reset();
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  PredictorPtr inner_;
  CorpusTrace* trace_;
};

class TracedController final : public Controller {
 public:
  TracedController(ControllerPtr inner, CorpusTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  soda::media::Rung ChooseRung(const Context& context) override {
    soda::media::Rung rung = 0;
    {
      ScopedSpan span(&trace_->spans, "core.decide", trace_->session);
      rung = inner_->ChooseRung(context);
    }
    const DecisionStats stats = inner_->LastDecisionStats();
    ++trace_->decisions;
    trace_->nodes_expanded += static_cast<double>(stats.nodes_expanded);
    trace_->nodes_pruned += static_cast<double>(stats.nodes_pruned);
    trace_->warm_starts += stats.warm_start_used ? 1 : 0;
    return rung;
  }
  void Reset() override { inner_->Reset(); }
  std::string Name() const override { return inner_->Name(); }
  DecisionStats LastDecisionStats() const override {
    return inner_->LastDecisionStats();
  }

 private:
  ControllerPtr inner_;
  CorpusTrace* trace_;
};

// Order-dependent digest of every per-session QoeMetrics field.
std::uint64_t QoeDigest(const std::vector<soda::qoe::QoeMetrics>& sessions) {
  std::uint64_t digest = sessions.size();
  for (const soda::qoe::QoeMetrics& m : sessions) {
    for (const double v : {m.mean_utility, m.rebuffer_ratio, m.switch_rate,
                           m.startup_ratio, m.qoe, m.wasted_mb, m.outage_ratio}) {
      digest = Fold(digest, DoubleBits(v));
    }
    digest = Fold(digest, static_cast<std::uint64_t>(m.segment_count));
    digest = Fold(digest, static_cast<std::uint64_t>(m.retries));
    digest = Fold(digest, static_cast<std::uint64_t>(m.failovers));
  }
  return digest;
}

}  // namespace

Result RunCorpusExact(const Options& options) {
  const soda::media::BitrateLadder ladder = soda::media::YoutubeHfr4kLadder();
  const soda::media::VideoModel video(ladder, {.segment_seconds = 2.0});
  soda::qoe::EvalConfig config =
      soda::bench::LiveEvalConfig(ladder, 20.0, options.seed);
  config.threads = 1;

  Result result;
  result.params = {{"sessions", std::to_string(kSessions)},
                   {"dataset", "puffer"},
                   {"controller", "soda"},
                   {"predictor", "ema"},
                   {"threads", "1"},
                   {"max_buffer_s", "20"},
                   {"segment_s", "2"},
                   {"latency_sample_every", std::to_string(kLatencySampleEvery)}};

  std::vector<soda::net::ThroughputTrace> corpus;
  std::vector<double> gen_ms;
  const double setup_s = MedianSetupSeconds(
      [&] {
        const std::int64_t start = NowNs();
        soda::Rng rng(options.seed);
        corpus = soda::net::DatasetEmulator(soda::net::DatasetKind::kPuffer)
                     .MakeSessions(kSessions, rng);
        gen_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
      },
      5, 0.5);
  const CacheSizes warm = CurrentCacheSizes();

  std::optional<std::uint64_t> reference = options.expect_digest;
  double qoe_mean = 0.0;
  double prefix_rss_mb = 0.0;
  std::vector<double> samples_us;
  // Runs whole-corpus passes (one round each) until `deadline` and at least
  // kPrefixPasses in all, checking each pass's digest against the pin (or,
  // unpinned, against the first pass).
  const auto run_passes = [&](const soda::qoe::ControllerFactory& controllers,
                              const soda::qoe::TracePredictorFactory& predictors,
                              const std::uint64_t& decisions, std::int64_t deadline,
                              SpanRecorder* spans) {
    std::vector<Round> rounds;
    do {
      Round round;
      round.samples_begin = samples_us.size();
      const std::uint64_t decisions_before = decisions;
      const double cpu_start = ProcessCpuSeconds();
      const std::int64_t start = NowNs();
      soda::qoe::EvalResult eval;
      {
        ScopedSpan span(spans, "eval.pass", result.attempted);
        eval = soda::qoe::EvaluateController(corpus, controllers, predictors,
                                             video, config);
      }
      round.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
      round.busy_s = round.wall_s;
      round.cpu_s = ProcessCpuSeconds() - cpu_start;
      round.decisions = static_cast<double>(decisions - decisions_before);
      round.sessions = static_cast<double>(eval.per_session.size());
      round.samples_end = samples_us.size();
      rounds.push_back(round);

      const std::uint64_t digest = QoeDigest(eval.per_session);
      if (!reference) reference = digest;
      if (result.attempted == 0) {
        result.digest = digest;
        qoe_mean = eval.aggregate.qoe.Mean();
      }
      result.attempted += eval.per_session.size();
      if (digest != *reference) {
        result.failed += eval.per_session.size();
      } else {
        for (const soda::qoe::QoeMetrics& m : eval.per_session) {
          if (!std::isfinite(m.qoe) || m.segment_count <= 0) ++result.failed;
        }
      }
      if (result.attempted == kPrefixPasses * kSessions) prefix_rss_mb = PeakRssMb();
    } while (NowNs() < deadline || result.attempted < kPrefixPasses * kSessions);
    return rounds;
  };

  const auto soda_controller = [] { return soda::core::MakeController("soda"); };
  const std::int64_t start = NowNs();
  const auto run_ns = static_cast<std::int64_t>(options.seconds * 1e9);

  // Untraced phase (the whole run, or its first third when tracing).
  std::uint64_t decisions = 0;
  const std::vector<Round> plain = run_passes(
      [&] {
        return ControllerPtr(std::make_unique<SampledController>(
            soda_controller(), &samples_us, &decisions));
      },
      soda::bench::EmaFactory(), decisions,
      start + (options.trace ? run_ns / 3 : run_ns), nullptr);
  const QuietSummary quiet = SummarizeQuietRounds(plain, samples_us, kQuietDivisor);

  auto& m = result.metrics;
  m["setup_s"] = setup_s;
  m["sessions_per_s"] = quiet.sessions_per_s;
  m["decisions_per_s"] = quiet.decisions_per_s;
  m["decide_p50_us"] = quiet.p50_us;
  m["decide_p99_us"] = quiet.p99_us;
  m["cpu_s_per_mdecision"] = quiet.cpu_s_per_mdecision;
  m["peak_rss_mb"] = prefix_rss_mb;
  m["net.corpus_gen_ms"] = Median(gen_ms);
  result.params["rounds"] = std::to_string(plain.size());
  result.params["quiet_rounds"] = std::to_string(quiet.rounds);
  result.params["quiet_latency_samples"] = std::to_string(quiet.samples);

  if (options.trace) {
    CorpusTrace trace;
    const std::vector<Round> traced = run_passes(
        [&] {
          return ControllerPtr(
              std::make_unique<TracedController>(soda_controller(), &trace));
        },
        [&](const soda::net::ThroughputTrace&) {
          ++trace.session;
          return PredictorPtr(std::make_unique<TracedPredictor>(
              std::make_unique<soda::predict::EmaPredictor>(), &trace));
        },
        trace.decisions, start + run_ns, &trace.spans);

    const double n = static_cast<double>(trace.decisions);
    const SpanRecorder::Totals pass = trace.spans.Get("eval.pass");
    const SpanRecorder::Totals decide = trace.spans.Get("core.decide");
    double predict_ns = 0.0;
    for (const char* name : {"predict.observe", "predict.horizon", "predict.reset"}) {
      predict_ns += static_cast<double>(trace.spans.Get(name).total_ns);
    }
    m["core.decide.self_ns"] = static_cast<double>(decide.self_ns) / n;
    m["core.solver.nodes_expanded"] = trace.nodes_expanded / n;
    m["core.solver.nodes_pruned"] = trace.nodes_pruned / n;
    m["core.solver.warm_start_share"] = static_cast<double>(trace.warm_starts) / n;
    m["predict.ns_per_call"] =
        predict_ns / static_cast<double>(trace.predictor_calls);
    m["predict.calls_per_decision"] =
        static_cast<double>(trace.predictor_calls) / n;
    // Decisions are segments: one ChooseRung per downloaded segment.
    m["sim.self_ns_per_segment"] = static_cast<double>(pass.self_ns) / n;
    m["trace_overhead"] = TraceOverhead(plain, traced);
    if (!options.trace_out.empty() && !trace.spans.Write(options.trace_out)) {
      ++result.failed;
    }
  }

  result.params["qoe_mean"] = std::to_string(qoe_mean);
  result.warm_caches_held = CurrentCacheSizes() == warm;
  return result;
}

}  // namespace perfbench
