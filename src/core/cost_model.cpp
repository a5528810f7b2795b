#include "core/cost_model.hpp"

#include <algorithm>
#include <cstddef>

#include "util/ensure.hpp"

namespace soda::core {

CostModel::CostModel(const media::BitrateLadder& ladder, CostModelConfig config)
    : ladder_(&ladder),
      config_(config),
      distortion_(config.distortion, ladder.MinMbps(), ladder.MaxMbps()) {
  SODA_ENSURE(config_.weights.alpha >= 0.0, "alpha must be non-negative");
  SODA_ENSURE(config_.weights.beta >= 0.0, "beta must be non-negative");
  SODA_ENSURE(config_.weights.gamma >= 0.0, "gamma must be non-negative");
  SODA_ENSURE(config_.weights.epsilon > 0.0 && config_.weights.epsilon <= 1.0,
              "epsilon must be in (0, 1]");
  SODA_ENSURE(config_.weights.barrier >= 0.0, "barrier must be non-negative");
  SODA_ENSURE(config_.weights.kappa >= 0.0, "kappa must be non-negative");
  SODA_ENSURE(config_.weights.safe_fraction >= 0.0 &&
                  config_.weights.safe_fraction < 1.0,
              "safe fraction must be in [0, 1)");
  SODA_ENSURE(config_.dt_s > 0.0, "dt must be positive");
  SODA_ENSURE(config_.max_buffer_s > 0.0, "max buffer must be positive");
  SODA_ENSURE(config_.target_buffer_s > 0.0 &&
                  config_.target_buffer_s < config_.max_buffer_s,
              "target buffer must be inside (0, max buffer)");

  const std::size_t count = ladder.Size();
  rung_bitrate_.reserve(count);
  rung_distortion_.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    const double bitrate = ladder.BitrateMbps(static_cast<media::Rung>(r));
    rung_bitrate_.push_back(bitrate);
    rung_distortion_.push_back(distortion_.At(bitrate));
  }
  rung_switch_.reserve(count * count);
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t p = 0; p < count; ++p) {
      rung_switch_.push_back(SwitchCost(rung_bitrate_[r], rung_bitrate_[p]));
    }
  }
  min_distortion_term_per_mbps_ =
      config_.weights.alpha * rung_distortion_[0] * config_.dt_s /
      rung_bitrate_[0];
  for (std::size_t r = 1; r < count; ++r) {
    min_distortion_term_per_mbps_ =
        std::min(min_distortion_term_per_mbps_,
                 config_.weights.alpha * rung_distortion_[r] * config_.dt_s /
                     rung_bitrate_[r]);
  }
}

double CostModel::SwitchCost(double bitrate_mbps,
                             double prev_bitrate_mbps) const noexcept {
  const double delta =
      distortion_.At(bitrate_mbps) - distortion_.At(prev_bitrate_mbps);
  return delta * delta;
}

double CostModel::DistortionTermCost(double predicted_mbps,
                                     double bitrate_mbps) const noexcept {
  return config_.weights.alpha * distortion_.At(bitrate_mbps) *
         VideoSecondsDownloaded(predicted_mbps, bitrate_mbps);
}

double CostModel::IntervalCost(double predicted_mbps, double bitrate_mbps,
                               double prev_bitrate_mbps, double buffer_after_s,
                               bool include_switch) const noexcept {
  double cost = config_.weights.alpha * distortion_.At(bitrate_mbps) *
                VideoSecondsDownloaded(predicted_mbps, bitrate_mbps);
  cost += config_.weights.beta * BufferCost(buffer_after_s);
  if (include_switch) {
    cost += config_.weights.gamma * SwitchCost(bitrate_mbps, prev_bitrate_mbps);
    if (bitrate_mbps != prev_bitrate_mbps) cost += config_.weights.kappa;
  }
  return cost;
}

}  // namespace soda::core
