// Shared fixtures for controller, simulator and file I/O tests.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "abr/controller.hpp"
#include "media/video_model.hpp"
#include "predict/fixed.hpp"

namespace soda::testing {

// A path in the system temp directory that no other test shares: it names
// the running test and process, and ends in `suffix` (e.g. "trace.csv").
// ctest runs every case as its own process, in parallel under -j, so a
// fixed name lets one case overwrite or delete another's files.
inline std::filesystem::path UniqueTempPath(std::string_view suffix) {
  std::string name = "soda_";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += info->test_suite_name();
    name += '.';
    name += info->name();
    name += '_';
  }
  name += std::to_string(::getpid());
  name += '_';
  name += suffix;
  // Parameterized test names contain '/'; keep the path one component.
  std::replace(name.begin(), name.end(), '/', '_');
  return std::filesystem::temp_directory_path() / name;
}

// Bundles a video model and fixed predictor and hands out contexts.
class ContextFixture {
 public:
  explicit ContextFixture(media::BitrateLadder ladder,
                          double segment_seconds = 2.0,
                          double max_buffer_s = 20.0)
      : video_(std::move(ladder), {.segment_seconds = segment_seconds}),
        predictor_(10.0),
        max_buffer_s_(max_buffer_s) {}

  void SetThroughput(double mbps) { predictor_.Set(mbps); }

  [[nodiscard]] abr::Context Make(double buffer_s, media::Rung prev_rung,
                                  double now_s = 100.0,
                                  std::int64_t segment_index = 50,
                                  bool playing = true) {
    abr::Context context;
    context.now_s = now_s;
    context.buffer_s = buffer_s;
    context.prev_rung = prev_rung;
    context.segment_index = segment_index;
    context.playing = playing;
    context.max_buffer_s = max_buffer_s_;
    context.video = &video_;
    context.predictor = &predictor_;
    return context;
  }

  [[nodiscard]] const media::VideoModel& Video() const { return video_; }

 private:
  media::VideoModel video_;
  predict::FixedPredictor predictor_;
  double max_buffer_s_;
};

}  // namespace soda::testing
