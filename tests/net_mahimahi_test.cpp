#include "net/mahimahi.hpp"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "net/generators.hpp"
#include "net/trace_io.hpp"
#include "test_helpers.hpp"

namespace soda::net {
namespace {

constexpr double kPacketMb = kMahimahiMtuBytes * 8.0 / 1e6;  // 0.012 Mb

TEST(Mahimahi, ParsesUniformSchedule) {
  // One packet per millisecond for one second = 1000 * 12 kbit = 12 Mb/s.
  std::string text;
  for (int ms = 1; ms <= 1000; ++ms) {
    text += std::to_string(ms) + "\n";
  }
  const ThroughputTrace trace = ParseMahimahi(text);
  EXPECT_NEAR(trace.MeanMbps(), 1000.0 * kPacketMb, 0.2);
}

TEST(Mahimahi, BinsCaptureRateChanges) {
  // Dense deliveries in the first second, sparse in the second.
  std::string text;
  for (int ms = 0; ms < 1000; ms += 2) text += std::to_string(ms) + "\n";
  for (int ms = 1000; ms < 2000; ms += 100) text += std::to_string(ms) + "\n";
  const ThroughputTrace trace = ParseMahimahi(text, {.bin_seconds = 1.0});
  EXPECT_GT(trace.ThroughputAt(0.5), trace.ThroughputAt(1.5) * 10.0);
}

TEST(Mahimahi, LoopsScheduleToRequestedDuration) {
  std::string text = "500\n1000\n";  // 2 packets per second period
  MahimahiOptions options;
  options.duration_s = 10.0;
  const ThroughputTrace trace = ParseMahimahi(text, options);
  EXPECT_NEAR(trace.DurationS(), 10.0, 1e-9);
  // Every second delivers ~2 packets.
  EXPECT_NEAR(trace.MeanMbps(), 2.0 * kPacketMb, kPacketMb);
}

TEST(Mahimahi, SkipsCommentsAndBlanks) {
  const ThroughputTrace trace =
      ParseMahimahi("# header\n\n 100 \n200\n", {.bin_seconds = 0.2});
  EXPECT_GT(trace.MeanMbps(), 0.0);
}

TEST(Mahimahi, RejectsMalformedInput) {
  EXPECT_THROW((void)ParseMahimahi(""), std::runtime_error);
  EXPECT_THROW((void)ParseMahimahi("abc\n"), std::runtime_error);
  EXPECT_THROW((void)ParseMahimahi("-5\n"), std::runtime_error);
  EXPECT_THROW((void)ParseMahimahi("100\n50\n"), std::runtime_error);
}

TEST(Mahimahi, RoundTripPreservesMeanRate) {
  const ThroughputTrace original = StepTrace({2.0, 6.0, 4.0}, 10.0);
  const std::string rendered = ToMahimahi(original, 1.0);
  MahimahiOptions options;
  options.duration_s = original.DurationS();
  const ThroughputTrace parsed = ParseMahimahi(rendered, options);
  EXPECT_NEAR(parsed.MeanMbps(), original.MeanMbps(), 0.1);
  // Per-phase rates also survive the packet quantization.
  EXPECT_NEAR(parsed.AverageMbps(0.0, 10.0), 2.0, 0.2);
  EXPECT_NEAR(parsed.AverageMbps(10.0, 20.0), 6.0, 0.2);
}

TEST(Mahimahi, FileRoundTrip) {
  const auto path = soda::testing::UniqueTempPath("trace.mahi");
  const ThroughputTrace original = ConstantTrace(5.0, 30.0);
  SaveMahimahiFile(original, path);
  const ThroughputTrace loaded = LoadMahimahiFile(path);
  EXPECT_NEAR(loaded.MeanMbps(), 5.0, 0.2);
  std::filesystem::remove(path);
}

TEST(Mahimahi, RoundTripConservesBytes) {
  // Packet schedules quantize rate but must conserve delivered bytes: the
  // round-tripped trace carries the same megabits to within one packet per
  // bin.
  const ThroughputTrace original = StepTrace({3.0, 9.0, 1.5}, 8.0);
  const double bin_s = 0.5;
  const std::string rendered = ToMahimahi(original, bin_s);
  MahimahiOptions options;
  options.duration_s = original.DurationS();
  options.bin_seconds = bin_s;
  const ThroughputTrace parsed = ParseMahimahi(rendered, options);
  const double total_bins = original.DurationS() / bin_s;
  EXPECT_NEAR(parsed.MegabitsBetween(0.0, original.DurationS()),
              original.MegabitsBetween(0.0, original.DurationS()),
              total_bins * kPacketMb);
}

TEST(Mahimahi, CsvAndMahimahiAgreeOnTheSameTrace) {
  // The two persistence formats must describe the same network: save a
  // trace both ways, load both back, compare per-window averages.
  const auto csv_path = soda::testing::UniqueTempPath("trace.csv");
  const auto mahi_path = soda::testing::UniqueTempPath("trace.mahi");
  const ThroughputTrace original = StepTrace({2.0, 6.0, 4.0}, 10.0);
  SaveTraceCsv(original, csv_path);
  SaveMahimahiFile(original, mahi_path);
  const ThroughputTrace from_csv = LoadTraceCsv(csv_path);
  MahimahiOptions options;
  options.duration_s = original.DurationS();
  const ThroughputTrace from_mahi = LoadMahimahiFile(mahi_path, options);
  for (double t0 = 0.0; t0 < 30.0; t0 += 10.0) {
    EXPECT_NEAR(from_csv.AverageMbps(t0, t0 + 10.0),
                from_mahi.AverageMbps(t0, t0 + 10.0), 0.25)
        << "window at " << t0;
  }
  std::filesystem::remove(csv_path);
  std::filesystem::remove(mahi_path);
}

TEST(Mahimahi, MissingFileThrows) {
  EXPECT_THROW((void)LoadMahimahiFile("/nonexistent/trace.mahi"),
               std::runtime_error);
}

TEST(Mahimahi, ValidatesOptions) {
  EXPECT_THROW((void)ParseMahimahi("1\n", {.bin_seconds = 0.0}),
               std::invalid_argument);
  const ThroughputTrace t = ConstantTrace(1.0, 5.0);
  EXPECT_THROW((void)ToMahimahi(t, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace soda::net
