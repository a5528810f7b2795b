// soda_perfbench: runs one benchmark workload and prints a run manifest line
// followed by the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: value}}
// holding every metric the workload measured (null when not finite).
// perfbench/run.py picks the end-to-end or per-layer ones, with their units,
// from BENCHMARK.json.
//
//   soda_perfbench --workload corpus-exact|serve-replay|fleet-coupled
//                  --seed N --seconds S --trace 0|1
//                  [--expect-digest D] [--trace-out PATH] [--commit ID]
//
// Exits 0 only when every operation passed its output check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "soda_perfbench: %s\nusage: soda_perfbench --workload "
               "corpus-exact|serve-replay|fleet-coupled --seed N --seconds S "
               "--trace 0|1 [--expect-digest D] [--trace-out PATH] "
               "[--commit ID]\n",
               message);
  std::exit(2);
}

std::uint64_t ParseU64(const std::string& text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') Usage((std::string("bad ") + flag).c_str());
  return value;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseU64(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) Usage("bad --seconds");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--expect-digest") {
      options.expect_digest = ParseU64(value, "--expect-digest");
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }

  Result result;
  try {
    if (options.workload == "corpus-exact") {
      result = perfbench::RunCorpusExact(options);
    } else if (options.workload == "serve-replay") {
      result = perfbench::RunServeReplay(options);
    } else if (options.workload == "fleet-coupled") {
      result = perfbench::RunFleetCoupled(options);
    } else {
      Usage(("unknown workload '" + options.workload + "'").c_str());
    }
    if (options.trace) {
      result.metrics["util.parallel.fork_join_us"] = perfbench::ForkJoinMicros();
      result.metrics["obs.snapshot_ms"] = perfbench::SnapshotMillis();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soda_perfbench: %s\n", e.what());
    return 1;
  }

  std::string metrics_json;
  for (const auto& [name, value] : result.metrics) {
    char buf[256];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", metrics_json.empty() ? "" : ", ",
                    name.c_str(), value);
    } else {
      std::snprintf(buf, sizeof buf, "%s\"%s\": null", metrics_json.empty() ? "" : ", ",
                    name.c_str());
    }
    metrics_json += buf;
  }

  if (!result.warm_caches_held) {
    std::fprintf(stderr,
                 "soda_perfbench: decision caches changed after set-up (warm "
                 "state not held)\n");
  }
  const bool correct =
      result.failed == 0 && result.attempted > 0 && result.warm_caches_held;

  std::string params;
  for (const auto& [key, value] : result.params) {
    params += (params.empty() ? "" : ", ") + ("\"" + key + "\": \"" + JsonEscape(value) + "\"");
  }
  std::printf(
      "{\"manifest\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"params\": {%s}, \"digest\": \"%llu\", \"pinned\": %s, "
      "\"git_commit\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %u, \"cpu_s\": %.6f, \"peak_rss_mb\": %.3f}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, params.c_str(),
      static_cast<unsigned long long>(result.digest),
      options.expect_digest ? "true" : "false", JsonEscape(commit).c_str(),
      PERFBENCH_BUILD_TYPE, JsonEscape(kCompiler).c_str(),
      std::thread::hardware_concurrency(), perfbench::ProcessCpuSeconds(),
      perfbench::PeakRssMb());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics_json.c_str());
  return correct ? 0 : 1;
}
