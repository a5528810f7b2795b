// Trace-impairment half of the fault subsystem: transforms are exact under
// the piecewise-constant trace model, plans compose and round-trip through
// the config format, and invalid parameters are rejected up front.
#include "fault/impairment.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "fault/profile.hpp"
#include "net/generators.hpp"
#include "test_helpers.hpp"

namespace soda::fault {
namespace {

TEST(Impairment, ScaleAppliesExactlyInsideItsWindow) {
  const net::ThroughputTrace trace = net::ConstantTrace(10.0, 100.0);
  ImpairmentPlan plan;
  plan.scales.push_back({.factor = 0.5, .from_s = 20.0, .to_s = 50.0});
  const net::ThroughputTrace impaired = plan.ApplyToTrace(trace);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(10.0), 10.0);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(20.0), 5.0);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(49.9), 5.0);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(50.0), 10.0);
  // The byte integral over the window is exact, not approximated.
  EXPECT_DOUBLE_EQ(impaired.AverageMbps(20.0, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(impaired.DurationS(), trace.DurationS());
}

TEST(Impairment, OutageClampsToFloorAndRepeats) {
  const net::ThroughputTrace trace = net::ConstantTrace(8.0, 120.0);
  ImpairmentPlan plan;
  plan.outages.push_back(
      {.start_s = 10.0, .duration_s = 5.0, .period_s = 40.0, .floor_mbps = 0.0});
  const net::ThroughputTrace impaired = plan.ApplyToTrace(trace);
  // Windows at [10,15), [50,55), [90,95).
  for (const double t : {12.0, 52.0, 92.0}) {
    EXPECT_DOUBLE_EQ(impaired.ThroughputAt(t), 0.0) << "t=" << t;
  }
  for (const double t : {5.0, 20.0, 60.0, 100.0}) {
    EXPECT_DOUBLE_EQ(impaired.ThroughputAt(t), 8.0) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(OutageSeconds(impaired, 0.0, 120.0), 15.0);
}

TEST(Impairment, OutageFloorKeepsResidualThroughput) {
  const net::ThroughputTrace trace = net::ConstantTrace(8.0, 60.0);
  ImpairmentPlan plan;
  plan.outages.push_back(
      {.start_s = 0.0, .duration_s = 60.0, .period_s = 0.0, .floor_mbps = 0.5});
  const net::ThroughputTrace impaired = plan.ApplyToTrace(trace);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(30.0), 0.5);
  // A non-zero floor is degraded service, not an outage.
  EXPECT_DOUBLE_EQ(OutageSeconds(impaired, 0.0, 60.0), 0.0);
}

TEST(Impairment, CdnSwitchBlackoutThenCapacityChange) {
  const net::ThroughputTrace trace = net::ConstantTrace(10.0, 100.0);
  ImpairmentPlan plan;
  plan.switches.push_back({.at_s = 40.0, .blackout_s = 3.0, .factor = 0.6});
  const net::ThroughputTrace impaired = plan.ApplyToTrace(trace);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(39.0), 10.0);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(41.0), 0.0);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(43.0), 6.0);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(99.0), 6.0);
  EXPECT_DOUBLE_EQ(OutageSeconds(impaired, 0.0, 100.0), 3.0);
}

TEST(Impairment, TransformsPreserveOriginalBreakpoints) {
  const net::ThroughputTrace trace = net::StepTrace({2.0, 6.0, 4.0}, 10.0);
  ImpairmentPlan plan;
  plan.scales.push_back({.factor = 0.5, .from_s = 5.0, .to_s = 25.0});
  const net::ThroughputTrace impaired = plan.ApplyToTrace(trace);
  // Original steps at t=10 and t=20 survive inside the scaled window.
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(7.0), 1.0);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(12.0), 3.0);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(22.0), 2.0);
  EXPECT_DOUBLE_EQ(impaired.ThroughputAt(27.0), 4.0);
}

TEST(Impairment, ComposeAppendsAndScalesMultiply) {
  const net::ThroughputTrace trace = net::ConstantTrace(16.0, 50.0);
  ImpairmentPlan a;
  a.scales.push_back({.factor = 0.5});
  ImpairmentPlan b;
  b.scales.push_back({.factor = 0.25});
  b.rtt_windows.push_back({.from_s = 0.0, .to_s = 10.0, .extra_s = 0.1});
  a.Compose(b);
  EXPECT_EQ(a.scales.size(), 2u);
  EXPECT_EQ(a.rtt_windows.size(), 1u);
  EXPECT_DOUBLE_EQ(a.ApplyToTrace(trace).ThroughputAt(25.0), 2.0);
}

TEST(Impairment, NoopAndTraceUnchangedDistinction) {
  ImpairmentPlan plan;
  EXPECT_TRUE(plan.IsNoop());
  EXPECT_TRUE(plan.TraceIsUnchanged());
  plan.rtt_windows.push_back({.from_s = 0.0, .to_s = kInfSeconds,
                              .extra_s = 0.05});
  // RTT windows impair requests, not the trace.
  EXPECT_FALSE(plan.IsNoop());
  EXPECT_TRUE(plan.TraceIsUnchanged());
  plan.outages.push_back({.start_s = 1.0, .duration_s = 1.0});
  EXPECT_FALSE(plan.TraceIsUnchanged());
}

TEST(Impairment, ExtraRttWindowsAdd) {
  ImpairmentPlan plan;
  plan.rtt_windows.push_back({.from_s = 0.0, .to_s = 100.0, .extra_s = 0.1});
  plan.rtt_windows.push_back({.from_s = 50.0, .to_s = 60.0, .extra_s = 0.2});
  EXPECT_DOUBLE_EQ(plan.ExtraRttAt(10.0), 0.1);
  EXPECT_DOUBLE_EQ(plan.ExtraRttAt(55.0), 0.1 + 0.2);
  EXPECT_DOUBLE_EQ(plan.ExtraRttAt(60.0), 0.1);  // half-open window
  EXPECT_DOUBLE_EQ(plan.ExtraRttAt(100.0), 0.0);
}

TEST(Impairment, OutageSecondsExtendsLastRateToQueryEnd) {
  // Trace ends in a zero-rate phase; the tail beyond the trace holds it.
  const net::ThroughputTrace trace = net::StepTrace({5.0, 0.0}, 10.0);
  EXPECT_DOUBLE_EQ(OutageSeconds(trace, 0.0, 30.0), 20.0);
  EXPECT_DOUBLE_EQ(OutageSeconds(trace, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(OutageSeconds(trace, 12.0, 18.0), 6.0);
}

TEST(Impairment, ValidationRejectsBadEvents) {
  const auto expect_invalid = [](const ImpairmentPlan& plan) {
    EXPECT_THROW(plan.Validate(), std::invalid_argument);
  };
  ImpairmentPlan plan;
  plan.outages.push_back({.start_s = -1.0, .duration_s = 1.0});
  expect_invalid(plan);
  plan = {};
  plan.outages.push_back({.start_s = 0.0, .duration_s = -2.0});
  expect_invalid(plan);
  plan = {};
  plan.scales.push_back({.factor = 0.0});
  expect_invalid(plan);
  plan = {};
  plan.scales.push_back({.factor = 1.0, .from_s = 10.0, .to_s = 5.0});
  expect_invalid(plan);
  plan = {};
  plan.switches.push_back({.at_s = 10.0, .blackout_s = -1.0});
  expect_invalid(plan);
  plan = {};
  plan.rtt_windows.push_back({.from_s = 0.0, .to_s = 10.0, .extra_s = -0.1});
  expect_invalid(plan);
}

TEST(Profile, SerializeParseRoundTripsEveryField) {
  FaultProfile profile;
  profile.name = "kitchen-sink";
  profile.plan.outages.push_back(
      {.start_s = 45.0, .duration_s = 4.0, .period_s = 90.0, .floor_mbps = 0.25});
  profile.plan.scales.push_back(
      {.factor = 0.35, .from_s = 60.0, .to_s = kInfSeconds});
  profile.plan.switches.push_back(
      {.at_s = 120.0, .blackout_s = 2.0, .factor = 0.6});
  profile.plan.rtt_windows.push_back(
      {.from_s = 10.0, .to_s = 200.0, .extra_s = 0.08});
  profile.transport.fail_prob = 0.04;
  profile.transport.fail_frac_lo = 0.2;
  profile.transport.fail_frac_hi = 0.8;
  profile.transport.timeout_prob = 0.015;
  profile.transport.timeout_s = 3.5;
  profile.transport.max_retries = 5;
  profile.transport.backoff_base_s = 0.25;
  profile.transport.backoff_mult = 1.5;
  profile.transport.max_backoff_s = 4.0;
  profile.transport.retry_budget = 17;
  profile.transport.failover = true;
  profile.transport.failover_after = 3;
  profile.transport.secondary_scale = 0.65;

  const FaultProfile parsed = FaultProfile::Parse(profile.Serialize());
  EXPECT_EQ(parsed.name, "kitchen-sink");
  ASSERT_EQ(parsed.plan.outages.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.plan.outages[0].start_s, 45.0);
  EXPECT_DOUBLE_EQ(parsed.plan.outages[0].duration_s, 4.0);
  EXPECT_DOUBLE_EQ(parsed.plan.outages[0].period_s, 90.0);
  EXPECT_DOUBLE_EQ(parsed.plan.outages[0].floor_mbps, 0.25);
  ASSERT_EQ(parsed.plan.scales.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.plan.scales[0].factor, 0.35);
  EXPECT_DOUBLE_EQ(parsed.plan.scales[0].from_s, 60.0);
  EXPECT_EQ(parsed.plan.scales[0].to_s, kInfSeconds);
  ASSERT_EQ(parsed.plan.switches.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.plan.switches[0].at_s, 120.0);
  EXPECT_DOUBLE_EQ(parsed.plan.switches[0].blackout_s, 2.0);
  EXPECT_DOUBLE_EQ(parsed.plan.switches[0].factor, 0.6);
  ASSERT_EQ(parsed.plan.rtt_windows.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.plan.rtt_windows[0].extra_s, 0.08);
  EXPECT_DOUBLE_EQ(parsed.transport.fail_prob, 0.04);
  EXPECT_DOUBLE_EQ(parsed.transport.fail_frac_lo, 0.2);
  EXPECT_DOUBLE_EQ(parsed.transport.fail_frac_hi, 0.8);
  EXPECT_DOUBLE_EQ(parsed.transport.timeout_prob, 0.015);
  EXPECT_DOUBLE_EQ(parsed.transport.timeout_s, 3.5);
  EXPECT_EQ(parsed.transport.max_retries, 5);
  EXPECT_DOUBLE_EQ(parsed.transport.backoff_base_s, 0.25);
  EXPECT_DOUBLE_EQ(parsed.transport.backoff_mult, 1.5);
  EXPECT_DOUBLE_EQ(parsed.transport.max_backoff_s, 4.0);
  EXPECT_EQ(parsed.transport.retry_budget, 17);
  EXPECT_TRUE(parsed.transport.failover);
  EXPECT_EQ(parsed.transport.failover_after, 3);
  EXPECT_DOUBLE_EQ(parsed.transport.secondary_scale, 0.65);
}

TEST(Profile, ParseRejectsUnknownSectionsAndBadValues) {
  EXPECT_THROW((void)FaultProfile::Parse("bogus key=1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultProfile::Parse("outage nope=1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultProfile::Parse("transport fail=abc\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultProfile::Parse("transport fail=1.5\n"),
               std::invalid_argument);
  // Comments and blank lines are fine.
  const FaultProfile ok =
      FaultProfile::Parse("# comment\n\ntransport fail=0.1\n");
  EXPECT_DOUBLE_EQ(ok.transport.fail_prob, 0.1);
}

TEST(Profile, BuiltinsHaveFixedOrderAndValidate) {
  const auto names = BuiltinProfileNames();
  ASSERT_GE(names.size(), 5u);
  EXPECT_EQ(names[0], "none");
  for (const auto& name : names) {
    const FaultProfile profile = BuiltinProfile(name);
    EXPECT_EQ(profile.name, name);
    profile.plan.Validate();
    profile.transport.Validate();
    // Each built-in survives its own round-trip.
    EXPECT_EQ(FaultProfile::Parse(profile.Serialize()).name, name);
  }
  EXPECT_TRUE(BuiltinProfile("none").IsNoop());
  EXPECT_FALSE(BuiltinProfile("flaky-transport").IsNoop());
  EXPECT_THROW((void)BuiltinProfile("bogus"), std::invalid_argument);
}

TEST(Profile, LoadProfileResolvesNamesAndFiles) {
  EXPECT_EQ(LoadProfile("periodic-outage").name, "periodic-outage");
  const auto path = soda::testing::UniqueTempPath("profile.cfg");
  std::ofstream(path) << "profile name=from-file\n"
                      << "scale factor=0.5 from=0 to=inf\n";
  const FaultProfile loaded = LoadProfile(path.string());
  EXPECT_EQ(loaded.name, "from-file");
  ASSERT_EQ(loaded.plan.scales.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.plan.scales[0].factor, 0.5);
  std::filesystem::remove(path);
  EXPECT_THROW((void)LoadProfile("/nonexistent/profile.cfg"),
               std::invalid_argument);
}

TEST(Transport, ValidationRejectsBadParameters) {
  const auto expect_invalid = [](TransportFaults faults) {
    EXPECT_THROW(faults.Validate(), std::invalid_argument);
  };
  TransportFaults faults;
  faults.fail_prob = -0.1;
  expect_invalid(faults);
  faults = {};
  faults.fail_prob = 0.7;
  faults.timeout_prob = 0.7;  // sum > 1
  expect_invalid(faults);
  faults = {};
  faults.fail_frac_lo = 0.9;
  faults.fail_frac_hi = 0.1;
  expect_invalid(faults);
  faults = {};
  faults.timeout_prob = 0.1;
  faults.timeout_s = 0.0;
  expect_invalid(faults);
  faults = {};
  faults.max_retries = -1;
  expect_invalid(faults);
  faults = {};
  faults.backoff_mult = 0.5;
  expect_invalid(faults);
  faults = {};
  faults.retry_budget = -2;
  expect_invalid(faults);
  faults = {};
  faults.failover_after = 0;
  expect_invalid(faults);
  faults = {};
  faults.secondary_scale = 0.0;
  expect_invalid(faults);
  TransportFaults ok;
  ok.fail_prob = 0.5;
  ok.timeout_prob = 0.5;
  EXPECT_NO_THROW(ok.Validate());
}

TEST(Transport, MixSeedIsPureAndDecorrelated) {
  EXPECT_EQ(MixSeed(1, 0), MixSeed(1, 0));
  EXPECT_NE(MixSeed(1, 0), MixSeed(1, 1));
  EXPECT_NE(MixSeed(1, 0), MixSeed(2, 0));
  static_assert(MixSeed(3, 4) == MixSeed(3, 4));
}

}  // namespace
}  // namespace soda::fault
