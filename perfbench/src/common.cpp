#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

#include "core/batch_lookup.hpp"
#include "core/decision_table.hpp"
#include "core/quantized_table.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace perfbench {

std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

QuietSummary SummarizeQuietRounds(const std::vector<Round>& rounds,
                                  const std::vector<double>& samples_us,
                                  std::size_t divisor) {
  const auto begin = [&](const Round& round) {
    return samples_us.begin() + static_cast<std::ptrdiff_t>(round.samples_begin);
  };
  const auto end = [&](const Round& round) {
    return samples_us.begin() + static_cast<std::ptrdiff_t>(round.samples_end);
  };
  std::vector<std::pair<double, const Round*>> ranked;
  for (const Round& round : rounds) {
    const double key = round.samples_end > round.samples_begin
                           ? Median(std::vector<double>(begin(round), end(round)))
                           : round.wall_s / round.decisions;
    ranked.emplace_back(key, &round);
  }
  std::sort(ranked.begin(), ranked.end());
  const std::size_t taken = std::min(
      ranked.size(), std::max<std::size_t>(1, ranked.size() / divisor));

  Round sum;
  std::vector<double> samples;
  for (std::size_t i = 0; i < taken; ++i) {
    const Round* round = ranked[i].second;
    sum.wall_s += round->wall_s;
    sum.busy_s += round->busy_s;
    sum.cpu_s += round->cpu_s;
    sum.decisions += round->decisions;
    sum.sessions += round->sessions;
    samples.insert(samples.end(), begin(*round), end(*round));
  }
  QuietSummary summary;
  summary.sessions_per_s = sum.sessions / sum.wall_s;
  summary.decisions_per_s = sum.decisions / sum.busy_s;
  summary.p50_us = Quantile(samples, 0.50);
  summary.p99_us = Quantile(samples, 0.99);
  summary.cpu_s_per_mdecision = sum.cpu_s / sum.decisions * 1e6;
  summary.rounds = taken;
  summary.samples = samples.size();
  return summary;
}

double TraceOverhead(const std::vector<Round>& plain,
                     const std::vector<Round>& traced) {
  const auto seconds_per_decision = [](const std::vector<Round>& rounds) {
    std::vector<double> values;
    for (const Round& round : rounds) values.push_back(round.wall_s / round.decisions);
    return Median(std::move(values));
  };
  return seconds_per_decision(traced) / seconds_per_decision(plain);
}

void PaceTo(std::int64_t start_ns, std::int64_t run_ns, std::uint64_t done,
            std::uint64_t total) {
  const std::int64_t due =
      start_ns + static_cast<std::int64_t>(static_cast<double>(run_ns) *
                                           static_cast<double>(done) /
                                           static_cast<double>(total));
  const std::int64_t wait = due - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

std::uint64_t Mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t Fold(std::uint64_t digest, std::uint64_t value) noexcept {
  return Mix64(digest ^ (value + 0x9E3779B97F4A7C15ULL + (digest << 6) +
                         (digest >> 2)));
}

std::uint64_t DoubleBits(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

double MedianSetupSeconds(const std::function<void()>& setup, int min_reps,
                          double min_total_s, int max_reps) {
  std::vector<double> runs;
  double total = 0.0;
  while (static_cast<int>(runs.size()) < max_reps &&
         (static_cast<int>(runs.size()) < min_reps || total < min_total_s)) {
    const std::int64_t start = NowNs();
    setup();
    const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
    runs.push_back(seconds);
    total += seconds;
  }
  return Median(std::move(runs));
}

CacheSizes CurrentCacheSizes() {
  return {soda::core::DecisionTableCacheSize(),
          soda::core::QuantizedTableCacheSize(),
          soda::core::BatchKernelCacheSize()};
}

void ClearDecisionCaches() {
  soda::core::ClearBatchKernelCacheForTesting();
  soda::core::ClearQuantizedTableCacheForTesting();
  soda::core::ClearDecisionTableCacheForTesting();
}

void SpanRecorder::Begin(const char* name, std::uint64_t group) {
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back({name, next_id_++, parent, group, NowNs(), 0});
}

void SpanRecorder::End() {
  const std::int64_t end_ns = NowNs();
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end_ns - span.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;

  // Span names are string literals, so pointer equality identifies them;
  // the list stays short (one entry per instrumented boundary).
  auto it = std::find_if(totals_.begin(), totals_.end(),
                         [&](const auto& entry) { return entry.first == span.name; });
  if (it == totals_.end()) {
    totals_.emplace_back(span.name, Totals{});
    it = totals_.end() - 1;
  }
  ++it->second.count;
  it->second.total_ns += duration;
  it->second.self_ns += duration - span.child_ns;

  if (stored_.size() < kMaxStoredSpans) {
    stored_.push_back(
        {span.name, span.id, span.parent, span.group, span.start_ns, end_ns});
  }
}

SpanRecorder::Totals SpanRecorder::Get(const std::string& name) const {
  for (const auto& [span_name, totals] : totals_) {
    if (name == span_name) return totals;
  }
  return {};
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Stored& s : stored_) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"group\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

double ForkJoinMicros() {
  std::vector<double> samples;
  for (int i = 0; i < 201; ++i) {
    const std::int64_t start = NowNs();
    soda::util::ParallelFor(4, 4, [](int, std::size_t) {});
    samples.push_back(static_cast<double>(NowNs() - start) * 1e-3);
  }
  return Median(std::move(samples));
}

double SnapshotMillis() {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t start = NowNs();
    const soda::obs::MetricsSnapshot snapshot =
        soda::obs::MetricsRegistry::Global().Snapshot();
    samples.push_back(static_cast<double>(NowNs() - start) * 1e-6);
  }
  return Median(std::move(samples));
}

}  // namespace perfbench
