// Shared plumbing for the perfbench workloads: options, results, clocks,
// resource probes, quantiles, digests, repeated set-up timing and the
// in-memory span recorder used by traced runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Pinned output digest for this (workload, seed); checked when present.
  std::optional<std::uint64_t> expect_digest;
  // Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

// What a workload hands back to main(): the counts behind `attempted` /
// `failed`, its output digest, its metrics by name and the workload
// parameters echoed into the run manifest.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  bool warm_caches_held = true;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> params;
};

// ---- clocks and resource probes -------------------------------------------

[[nodiscard]] std::int64_t NowNs() noexcept;
[[nodiscard]] double ProcessCpuSeconds() noexcept;
[[nodiscard]] double PeakRssMb() noexcept;

// ---- statistics ------------------------------------------------------------

// Linear-interpolation quantile (q in [0, 1]) of `values`; sorts a copy.
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ---- rounds ----------------------------------------------------------------
//
// A workload's timed phase is a sequence of rounds, each a fixed unit of work
// (a corpus pass, a block of serving steps, a fleet run). On a shared host,
// noise arrives in bursts lasting seconds to minutes that slow every round
// they overlap (by up to 2x on the 4-vCPU VM this was tuned on), so the
// end-to-end timings are taken over the quiet rounds: a fixed share of all
// rounds (at least one), those with the lowest median latency sample. One
// slow call cannot move a round's median, so a round is never dropped for
// its tail, and p50/p99 are taken over every sample of the quiet rounds. A
// round without samples is ranked by wall time per decision instead.
//
// The share is fixed, so the figures are a quantile of the rounds and do not
// drift with how many rounds a run fits. Each workload uses the smallest
// share that still holds enough work: on that VM a run is often slow for
// most of its time, and a quarter fell on slow rounds in 3 of 10 runs.

struct Round {
  double wall_s = 0.0;  // the whole round
  double busy_s = 0.0;  // time inside the measured library calls
  double cpu_s = 0.0;   // process CPU time (all threads)
  double decisions = 0.0;
  double sessions = 0.0;
  // This round's latency samples: [samples_begin, samples_end) of the
  // workload's sample vector.
  std::size_t samples_begin = 0;
  std::size_t samples_end = 0;
};

struct QuietSummary {
  double sessions_per_s = 0.0;   // sessions / wall
  double decisions_per_s = 0.0;  // decisions / busy
  double p50_us = 0.0;
  double p99_us = 0.0;
  double cpu_s_per_mdecision = 0.0;
  std::size_t rounds = 0;
  std::size_t samples = 0;
};

// Summarizes the quiet rounds: one in `divisor` of `rounds`.
[[nodiscard]] QuietSummary SummarizeQuietRounds(
    const std::vector<Round>& rounds, const std::vector<double>& samples_us,
    std::size_t divisor);

// Traced ÷ untraced time per decision, each the median over its rounds of
// round wall time per decision. Round wall time covers everything tracing
// adds inside a round, not only the measured library calls.
[[nodiscard]] double TraceOverhead(const std::vector<Round>& plain,
                                   const std::vector<Round>& traced);

// Work capped by memory (serving steps, fleet calls) is spread evenly over
// the run time instead of running back to back, so the quiet rounds are
// drawn from the whole run rather than from its first seconds: sleeps until
// unit `done` of `total` is due, i.e. until start + run_ns * done / total.
void PaceTo(std::int64_t start_ns, std::int64_t run_ns, std::uint64_t done,
            std::uint64_t total);

// ---- digests ---------------------------------------------------------------

[[nodiscard]] std::uint64_t Mix64(std::uint64_t x) noexcept;
// Order-dependent fold of one value into a running digest.
[[nodiscard]] std::uint64_t Fold(std::uint64_t digest,
                                 std::uint64_t value) noexcept;
[[nodiscard]] std::uint64_t DoubleBits(double value) noexcept;

// ---- set-up timing ---------------------------------------------------------

// Runs `setup` at least `min_reps` times and until `min_total_s` seconds
// have been spent (capped at `max_reps`), returning the median seconds of
// one run. The state the last run leaves behind is what the timed phase
// uses.
[[nodiscard]] double MedianSetupSeconds(const std::function<void()>& setup,
                                        int min_reps = 5,
                                        double min_total_s = 1.0,
                                        int max_reps = 60);

// Sizes of the three process-wide decision caches; the timed phase must not
// grow them (set-up fills them).
struct CacheSizes {
  std::size_t tables = 0;
  std::size_t quantized = 0;
  std::size_t kernels = 0;
  bool operator==(const CacheSizes&) const = default;
};
[[nodiscard]] CacheSizes CurrentCacheSizes();
// Empties the three caches so every set-up repetition pays the full build.
void ClearDecisionCaches();

// ---- tracing ---------------------------------------------------------------

// Spans recorded on one thread around calls into the library. Each span has
// a name, start, end, parent and a group id (session, step or run). Self
// time (duration minus the time covered by child spans) is aggregated per
// name for every span; the first kMaxStoredSpans spans are also kept in
// memory and written out as JSON lines at exit.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxStoredSpans = 100000;

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  // Opens a span as a child of the innermost open span.
  void Begin(const char* name, std::uint64_t group);
  // Closes the innermost open span.
  void End();

  [[nodiscard]] Totals Get(const std::string& name) const;
  // Writes stored spans to `path` (one JSON object per line). Returns false
  // when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t group;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Stored {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t group;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::vector<Open> stack_;
  std::vector<Stored> stored_;
  std::vector<std::pair<const char*, Totals>> totals_;
  std::uint64_t next_id_ = 1;
};

// RAII span on a recorder; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t group)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name, group);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

// ---- layer probes ----------------------------------------------------------

// Median microseconds of util::ParallelFor over 4 items at 4 threads with an
// empty body: the fork/join cost every parallel caller pays per call.
[[nodiscard]] double ForkJoinMicros();
// Milliseconds of one obs::MetricsRegistry::Global().Snapshot().
[[nodiscard]] double SnapshotMillis();

// ---- workloads -------------------------------------------------------------

[[nodiscard]] Result RunCorpusExact(const Options& options);
[[nodiscard]] Result RunServeReplay(const Options& options);
[[nodiscard]] Result RunFleetCoupled(const Options& options);

}  // namespace perfbench
