// Process-wide metrics: counters, gauges and fixed-bucket histograms.
//
// The registry is built for instrumented hot paths that may run under
// util::ParallelFor: writes go to lock-free per-thread shards (one relaxed
// atomic add on a thread-private cache line; the registry mutex is touched
// only on first use per thread and at snapshot time), and Snapshot() merges
// the shards by summation — exact integer arithmetic, so the merged view is
// bit-identical for any thread count and any interleaving, the same
// determinism contract util::ParallelFor gives evaluation results. Shards
// are owned by the registry and live as long as it does, one per thread
// that ever recorded into it. util::ParallelFor runs on persistent pool
// threads, so that is at most the pool size plus the calling threads; a
// program that recorded from many short-lived threads would add a shard
// for each of them. Gauges are last-write-wins process-wide values for
// run-level facts (corpus size, configuration); they are not meant to be
// set concurrently.
//
// Handles (Counter / Gauge / Histogram) are cheap value types resolved once
// at registration; recording through a handle never looks the metric up
// again and never allocates. A default-constructed handle is a no-op, as is
// every recording call when the registry is disabled (SetEnabled(false)) or
// when the library is compiled with SODA_OBS_DISABLED (the compile-time off
// switch: recording bodies compile to empty functions).
//
//   obs::Counter skipped =
//       obs::MetricsRegistry::Global().GetCounter("net.trace_csv.rows_skipped");
//   skipped.Add();                       // hot path: one relaxed fetch_add
//   obs::MetricsRegistry::Global().WriteJson(out);  // run-level snapshot
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace soda::obs {

class MetricsRegistry;

// Monotonically increasing integer metric.
class Counter {
 public:
  Counter() = default;
  void Add(std::uint64_t delta = 1) const noexcept;
  void Increment() const noexcept { Add(1); }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::uint32_t slot)
      : registry_(registry), slot_(slot) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t slot_ = 0;
};

// Last-write-wins double value (run-level facts; not for concurrent use).
class Gauge {
 public:
  Gauge() = default;
  void Set(double value) const noexcept;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

// Fixed-bucket histogram: `bounds` are ascending upper bounds; a value v is
// counted in the first bucket with v <= bounds[i], or in the implicit
// overflow bucket past the last bound.
class Histogram {
 public:
  Histogram() = default;
  void Record(double value) const noexcept;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* registry, std::uint32_t base_slot,
            std::shared_ptr<const std::vector<double>> bounds)
      : registry_(registry), base_slot_(base_slot), bounds_(std::move(bounds)) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t base_slot_ = 0;
  std::shared_ptr<const std::vector<double>> bounds_;
};

struct HistogramSnapshot {
  std::vector<double> bounds;          // ascending upper bounds
  std::vector<std::uint64_t> counts;   // bounds.size() + 1 entries (overflow last)
  [[nodiscard]] std::uint64_t TotalCount() const noexcept;

  // The q-quantile (q in [0, 1], clamped) estimated by linear interpolation
  // within the fixed buckets, so p50/p99 latency can be reported straight
  // from a snapshot without post-processing. Bucket i spans
  // (bounds[i-1], bounds[i]]; the first bucket's lower edge is taken as
  // min(0, bounds[0]) (observations are assumed non-negative when the first
  // bound is positive, the Prometheus histogram_quantile convention), and a
  // quantile landing in the unbounded overflow bucket reports bounds.back()
  // — the estimate saturates at the last finite edge. Returns 0 when the
  // histogram is empty. The estimate is exact whenever the underlying
  // samples are uniform within each bucket; the error is otherwise bounded
  // by the bucket width.
  [[nodiscard]] double Quantile(double q) const noexcept;
};

// Merged view of every metric; maps are keyed (and therefore ordered) by
// metric name, so serialization is deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  // Total atomic slots per thread shard; registration past this throws.
  static constexpr std::size_t kShardSlots = 4096;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every built-in instrumentation point records
  // into. Tests that need isolation construct their own instance.
  [[nodiscard]] static MetricsRegistry& Global();

  // Registration is idempotent by name (the existing metric is returned);
  // re-registering a name as a different kind, or a histogram with
  // different bounds, throws std::invalid_argument.
  [[nodiscard]] Counter GetCounter(std::string_view name);
  [[nodiscard]] Gauge GetGauge(std::string_view name);
  [[nodiscard]] Histogram GetHistogram(std::string_view name,
                                       std::vector<double> upper_bounds);

  // Runtime off switch: while disabled, recording through any handle is a
  // no-op (registration still works).
  void SetEnabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool Enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Deterministic merged view: counters and histogram buckets are exact
  // integer sums over the per-thread shards.
  [[nodiscard]] MetricsSnapshot Snapshot() const;

  // Zeroes every counter, gauge and histogram (registrations survive).
  void Reset() noexcept;

  // Writes the snapshot as a JSON object {"counters": ..., "gauges": ...,
  // "histograms": ...} with keys in name order.
  void WriteJson(std::ostream& out, int indent = 2) const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  enum class Kind { kCounter, kGauge, kHistogram };
  struct MetricDef {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint32_t slot = 0;  // counter/histogram base slot; gauge index
    std::shared_ptr<const std::vector<double>> bounds;  // histograms only
  };

  // One thread's private slot array. Atomics only because Snapshot() reads
  // them concurrently; each slot has a single writer.
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kShardSlots> slots{};
  };

  [[nodiscard]] Shard& LocalShard() noexcept;
  void AddToSlot(std::uint32_t slot, std::uint64_t delta) noexcept;
  void SetGauge(std::uint32_t index, double value) noexcept;
  [[nodiscard]] const MetricDef* FindDef(std::string_view name) const;

  const std::uint64_t instance_id_;  // unique per instance, never reused
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::vector<MetricDef> defs_;
  std::uint32_t next_slot_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<double> gauge_values_;
};

}  // namespace soda::obs
