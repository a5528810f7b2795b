#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "net/generators.hpp"
#include "net/trace_io.hpp"
#include "net/trace_stats.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace soda::net {
namespace {

namespace fs = std::filesystem;

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = soda::testing::UniqueTempPath("trace_io");
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(TraceIoTest, SaveLoadRoundTrip) {
  const ThroughputTrace original = StepTrace({1.5, 3.0, 6.0}, 2.0);
  const fs::path path = dir_ / "trace.csv";
  SaveTraceCsv(original, path);
  const ThroughputTrace loaded = LoadTraceCsv(path);
  EXPECT_NEAR(loaded.ThroughputAt(1.0), 1.5, 1e-6);
  EXPECT_NEAR(loaded.ThroughputAt(3.0), 3.0, 1e-6);
  EXPECT_NEAR(loaded.ThroughputAt(5.0), 6.0, 1e-6);
  // Duration is extended by the median sample spacing.
  EXPECT_NEAR(loaded.DurationS(), 6.0, 0.1);
}

TEST_F(TraceIoTest, LoadHeaderless) {
  const fs::path path = dir_ / "raw.csv";
  std::ofstream(path) << "0,5\n1,6\n2,7\n";
  const ThroughputTrace t = LoadTraceCsv(path);
  EXPECT_NEAR(t.ThroughputAt(0.5), 5.0, 1e-9);
  EXPECT_NEAR(t.ThroughputAt(1.5), 6.0, 1e-9);
}

TEST_F(TraceIoTest, LoadRebasesNonZeroStart) {
  const fs::path path = dir_ / "offset.csv";
  std::ofstream(path) << "time_s,mbps\n100,5\n101,6\n";
  const ThroughputTrace t = LoadTraceCsv(path);
  EXPECT_NEAR(t.ThroughputAt(0.0), 5.0, 1e-9);
}

TEST_F(TraceIoTest, DurationHintExtends) {
  const fs::path path = dir_ / "hint.csv";
  std::ofstream(path) << "0,5\n1,6\n";
  const ThroughputTrace t = LoadTraceCsv(path, 60.0);
  EXPECT_DOUBLE_EQ(t.DurationS(), 60.0);
}

TEST_F(TraceIoTest, EmptyFileThrows) {
  const fs::path path = dir_ / "empty.csv";
  std::ofstream(path) << "";
  EXPECT_THROW(LoadTraceCsv(path), std::runtime_error);
}

TEST_F(TraceIoTest, HeaderOnlyThrows) {
  const fs::path path = dir_ / "header_only.csv";
  std::ofstream(path) << "time_s,mbps\n";
  EXPECT_THROW(LoadTraceCsv(path), std::runtime_error);
}

TEST_F(TraceIoTest, DirectoryLoadSkipsBadFiles) {
  std::ofstream(dir_ / "a.csv") << "0,5\n1,6\n";
  std::ofstream(dir_ / "b.csv") << "garbage\nmore garbage\n";
  std::ofstream(dir_ / "c.csv") << "0,1\n2,3\n";
  std::ofstream(dir_ / "ignored.txt") << "0,1\n";
  std::vector<fs::path> skipped;
  const auto traces = LoadTraceDirectory(dir_, &skipped);
  EXPECT_EQ(traces.size(), 2u);
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_EQ(skipped[0].filename(), "b.csv");
}

TEST_F(TraceIoTest, MissingDirectoryThrows) {
  EXPECT_THROW(LoadTraceDirectory(dir_ / "nope"), std::invalid_argument);
}

TEST_F(TraceIoTest, SkipsMalformedLinesInsteadOfAborting) {
  // Real-world exports interleave comments, truncated rows and garbage;
  // the loader must keep every valid sample and drop the rest.
  const fs::path path = dir_ / "messy.csv";
  std::ofstream(path) << "time_s,mbps\n"
                      << "0,5\n"
                      << "oops\n"
                      << "1\n"          // truncated row
                      << "1,abc\n"      // unparsable rate
                      << "2,7\n"
                      << "3,nan\n"      // non-finite rate
                      << "4,-2\n"       // negative rate
                      << "5,9\n";
  const ThroughputTrace t = LoadTraceCsv(path);
  EXPECT_NEAR(t.ThroughputAt(0.5), 5.0, 1e-9);
  EXPECT_NEAR(t.ThroughputAt(2.5), 7.0, 1e-9);
  EXPECT_NEAR(t.ThroughputAt(5.0), 9.0, 1e-9);
  // The skipped t=1,3,4 rows leave their intervals on the prior rate.
  EXPECT_NEAR(t.ThroughputAt(1.5), 5.0, 1e-9);
  EXPECT_NEAR(t.ThroughputAt(4.5), 7.0, 1e-9);
}

TEST_F(TraceIoTest, SkipsNonIncreasingTimestamps) {
  const fs::path path = dir_ / "unordered.csv";
  std::ofstream(path) << "0,5\n2,6\n1,99\n2,98\n3,7\n";
  const ThroughputTrace t = LoadTraceCsv(path);
  // The out-of-order and duplicate rows are dropped, not reordered.
  EXPECT_NEAR(t.ThroughputAt(2.5), 6.0, 1e-9);
  EXPECT_NEAR(t.ThroughputAt(3.0), 7.0, 1e-9);
}

TEST_F(TraceIoTest, SkippedRowsAreCountedInMetrics) {
  // Tolerant loading must leave an audit trail: every dropped row ticks
  // the global "net.trace_csv.rows_skipped" counter (soda_run surfaces a
  // warning from it). Delta-based because the registry is process-wide.
  const fs::path path = dir_ / "counted.csv";
  std::ofstream(path) << "time_s,mbps\n0,5\njunk\n1,6\n";
  const auto count = [](const obs::MetricsSnapshot& s) -> std::uint64_t {
    const auto it = s.counters.find("net.trace_csv.rows_skipped");
    return it == s.counters.end() ? 0 : it->second;
  };
  const std::uint64_t before =
      count(obs::MetricsRegistry::Global().Snapshot());
  (void)LoadTraceCsv(path);
  const std::uint64_t after =
      count(obs::MetricsRegistry::Global().Snapshot());
  EXPECT_EQ(after - before, 2u);  // the header row and the junk row
}

TEST_F(TraceIoTest, AllMalformedRowsStillThrows) {
  const fs::path path = dir_ / "hopeless.csv";
  std::ofstream(path) << "garbage\nworse,garbage\n";
  EXPECT_THROW(LoadTraceCsv(path), std::runtime_error);
}

TEST_F(TraceIoTest, DirectoryLoadKeepsPartiallyMalformedFiles) {
  std::ofstream(dir_ / "good.csv") << "0,5\n1,6\n";
  std::ofstream(dir_ / "partial.csv") << "header,row\n0,5\njunk line\n1,6\n";
  std::ofstream(dir_ / "bad.csv") << "no\nnumbers\nhere\n";
  std::vector<fs::path> skipped;
  const auto traces = LoadTraceDirectory(dir_, &skipped);
  EXPECT_EQ(traces.size(), 2u);  // partial.csv survives its junk line
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_EQ(skipped[0].filename(), "bad.csv");
}

TEST(TraceStats, ComputeTraceStats) {
  const ThroughputTrace t = StepTrace({2.0, 4.0, 6.0}, 10.0);
  const TraceStats stats = ComputeTraceStats(t, 1.0);
  EXPECT_NEAR(stats.mean_mbps, 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.min_mbps, 2.0);
  EXPECT_DOUBLE_EQ(stats.max_mbps, 6.0);
  EXPECT_GT(stats.rel_std, 0.3);
  EXPECT_LE(stats.p5_mbps, stats.p95_mbps);
}

TEST(TraceStats, ConstantTraceHasZeroRelStd) {
  const ThroughputTrace t = ConstantTrace(5.0, 50.0);
  EXPECT_DOUBLE_EQ(ComputeTraceStats(t).rel_std, 0.0);
}

TEST(TraceStats, FilterAndSplitSessions) {
  std::vector<ThroughputTrace> raw;
  raw.push_back(ConstantTrace(5.0, 25 * 60.0));  // 25 min -> 2 sessions
  raw.push_back(ConstantTrace(5.0, 5 * 60.0));   // too short -> dropped
  raw.push_back(ConstantTrace(5.0, 10 * 60.0));  // exactly one session
  const auto sessions = FilterAndSplitSessions(raw, 600.0, 600.0);
  EXPECT_EQ(sessions.size(), 3u);
  for (const auto& s : sessions) {
    EXPECT_DOUBLE_EQ(s.DurationS(), 600.0);
  }
}

TEST(TraceStats, VolatilityQuartilesOrdering) {
  std::vector<ThroughputTrace> sessions;
  // Increasingly volatile square waves.
  for (int i = 0; i < 8; ++i) {
    const double amplitude = 1.0 + static_cast<double>(i);
    sessions.push_back(
        SquareWaveTrace(10.0 - amplitude, 10.0 + amplitude, 10.0, 100.0));
  }
  const auto quartiles = VolatilityQuartiles(sessions, 1.0);
  std::size_t total = 0;
  for (const auto& q : quartiles) total += q.size();
  EXPECT_EQ(total, sessions.size());
  ASSERT_EQ(quartiles[0].size(), 2u);
  // Most stable sessions (low index) land in Q1; most volatile in Q4.
  EXPECT_EQ(quartiles[0][0], 0u);
  EXPECT_EQ(quartiles[3][1], 7u);
}

TEST(TraceStats, QuartilesCoverAllIndicesOnce) {
  std::vector<ThroughputTrace> sessions;
  for (int i = 0; i < 10; ++i) {
    sessions.push_back(SquareWaveTrace(5.0, 5.0 + i, 8.0, 64.0));
  }
  const auto quartiles = VolatilityQuartiles(sessions);
  std::vector<bool> seen(sessions.size(), false);
  for (const auto& q : quartiles) {
    for (const std::size_t i : q) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace soda::net
