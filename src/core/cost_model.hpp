// SODA's time-based cost model (section 3.1).
//
// Per time interval n of length dt the cost is
//
//   v(r_n) * (w_n * dt / r_n)   distortion, weighted by video downloaded
// + beta * b(x_n)               buffer-stability cost around target x_bar
// + gamma * c(r_n, r_{n-1})     switching cost (v(r_n) - v(r_{n-1}))^2
//
// with buffer dynamics x_n = x_{n-1} + w_n * dt / r_n - dt in [0, x_max].
//
// Normalization: v is scaled to [0, 1] across the ladder (media::Distortion)
// and the buffer deviation is measured relative to the target level, so the
// default beta/gamma transfer across bitrate ladders and buffer sizes.
#pragma once

#include <vector>

#include "media/bitrate_ladder.hpp"
#include "media/quality.hpp"

namespace soda::core {

struct CostWeights {
  // Distortion weight (the paper fixes it to 1; exposed for ablations).
  double alpha = 1.0;
  // Buffer-stability weight. Tuned so that buffer regulation protects
  // against stalls without inducing rung oscillation when the throughput
  // sits between two rungs (see EXPERIMENTS.md tuning notes).
  double beta = 10.0;
  // Switching weight on the smooth term (v(r) - v(r_prev))^2.
  double gamma = 80.0;
  // Fixed cost per discrete switch (added on top of the smooth term).
  // The quadratic term alone under-penalizes single-rung moves on dense
  // ladders (adjacent distortion deltas shrink with ladder density while
  // the evaluation QoE charges per switch *count*); kappa aligns the
  // controller with the count-based metric. Set to 0 to recover the
  // paper's pure Equation-1 switching cost (the theory benches do).
  double kappa = 8.0;
  // Roll-off above the target: the epsilon < 1 of the buffer cost.
  double epsilon = 0.2;
  // Control-barrier-style stall protection: an additional quadratic penalty
  // that engages once the buffer falls below safe_fraction * target and
  // peaks at `barrier` when the buffer is empty. The paper's b() is the
  // smooth penalty steering toward the target; the barrier makes the
  // near-empty region steep (the "steep buffer costs" Theorem 4.2 relies
  // on) without strengthening mid-range regulation, which would cause rung
  // oscillation.
  double barrier = 200.0;
  double safe_fraction = 0.45;
};

struct CostModelConfig {
  CostWeights weights;
  double target_buffer_s = 12.0;
  double max_buffer_s = 20.0;
  double dt_s = 2.0;
  media::DistortionModel distortion = media::DistortionModel::kLog;
};

class CostModel {
 public:
  // Throws std::invalid_argument on invalid configuration.
  CostModel(const media::BitrateLadder& ladder, CostModelConfig config);

  [[nodiscard]] const CostModelConfig& Config() const noexcept {
    return config_;
  }
  [[nodiscard]] const media::BitrateLadder& Ladder() const noexcept {
    return *ladder_;
  }

  // Normalized distortion v(r) in [0, 1].
  [[nodiscard]] double DistortionAt(double bitrate_mbps) const noexcept {
    return distortion_.At(bitrate_mbps);
  }

  // The asymmetric buffer-stability cost b(x): quadratic below the target,
  // epsilon-scaled quadratic above, both relative to the target level.
  [[nodiscard]] double BufferCost(double buffer_s) const noexcept {
    const double target = config_.target_buffer_s;
    // Relative deviation keeps beta meaningful across buffer scales.
    const double deviation = (buffer_s - target) / target;
    double cost = deviation * deviation;
    if (buffer_s > target) {
      cost *= config_.weights.epsilon;
    } else {
      const double safe = config_.weights.safe_fraction * target;
      if (buffer_s < safe && safe > 0.0 && config_.weights.beta > 0.0) {
        // Expressed relative to beta so the total buffer cost stays a single
        // beta-weighted term in the objective.
        const double shortfall = (safe - buffer_s) / safe;
        cost += config_.weights.barrier / config_.weights.beta * shortfall *
                shortfall;
      }
    }
    return cost;
  }

  // Smooth switching cost c(r, r_prev) = (v(r) - v(r_prev))^2 (without
  // the kappa count term, which IntervalCost adds).
  [[nodiscard]] double SwitchCost(double bitrate_mbps,
                                  double prev_bitrate_mbps) const noexcept;

  // Full one-interval cost given predicted throughput w (Mb/s), selected
  // bitrate r and the buffer level *after* the interval.
  [[nodiscard]] double IntervalCost(double predicted_mbps, double bitrate_mbps,
                                    double prev_bitrate_mbps,
                                    double buffer_after_s,
                                    bool include_switch) const noexcept;

  // Video seconds downloaded in one interval: w * dt / r.
  [[nodiscard]] double VideoSecondsDownloaded(
      double predicted_mbps, double bitrate_mbps) const noexcept {
    return predicted_mbps * config_.dt_s / bitrate_mbps;
  }

  // The weighted distortion term alone: alpha * v(r) * (w * dt / r). Used
  // by the solver's terminal tail cost.
  [[nodiscard]] double DistortionTermCost(double predicted_mbps,
                                          double bitrate_mbps) const noexcept;

  // Buffer level after one interval (unclamped): x + w*dt/r - dt.
  [[nodiscard]] double NextBuffer(double buffer_s, double predicted_mbps,
                                  double bitrate_mbps) const noexcept {
    return buffer_s + VideoSecondsDownloaded(predicted_mbps, bitrate_mbps) -
           config_.dt_s;
  }

  // ---- Per-rung tables (precomputed at construction) -------------------
  //
  // The solvers' inner loops index these instead of re-deriving bitrate,
  // normalized distortion and pairwise switch costs per node. The table
  // entries are computed with exactly the arithmetic of the bitrate-based
  // accessors above, so rung-based and bitrate-based evaluation agree
  // bit-for-bit.

  [[nodiscard]] int RungCount() const noexcept {
    return static_cast<int>(rung_bitrate_.size());
  }
  [[nodiscard]] double RungBitrate(media::Rung rung) const noexcept {
    return rung_bitrate_[static_cast<std::size_t>(rung)];
  }
  // v(r) for the rung's bitrate.
  [[nodiscard]] double RungDistortion(media::Rung rung) const noexcept {
    return rung_distortion_[static_cast<std::size_t>(rung)];
  }
  // Smooth switch cost (v(r) - v(prev))^2, tabulated pairwise.
  [[nodiscard]] double RungSwitchCost(media::Rung rung,
                                      media::Rung prev_rung) const noexcept {
    return rung_switch_[static_cast<std::size_t>(rung) * rung_bitrate_.size() +
                        static_cast<std::size_t>(prev_rung)];
  }
  // alpha * v(r) * (w * dt / r) via the tables; equals
  // DistortionTermCost(w, RungBitrate(rung)) bit-for-bit.
  [[nodiscard]] double RungDistortionTermCost(double predicted_mbps,
                                              media::Rung rung) const noexcept {
    return config_.weights.alpha * RungDistortion(rung) *
           VideoSecondsDownloaded(predicted_mbps, RungBitrate(rung));
  }
  // Full one-interval cost by rung. `prev_rung` < 0 drops the switching
  // terms (first decision of a session). Mirrors IntervalCost term by term
  // on the corresponding bitrates, so it is bit-identical to it. Defined
  // here so the solvers' per-node step arithmetic inlines.
  [[nodiscard]] double RungIntervalCost(double predicted_mbps,
                                        media::Rung rung, media::Rung prev_rung,
                                        double buffer_after_s) const noexcept {
    double cost = config_.weights.alpha * RungDistortion(rung) *
                  VideoSecondsDownloaded(predicted_mbps, RungBitrate(rung));
    cost += config_.weights.beta * BufferCost(buffer_after_s);
    if (prev_rung >= 0) {
      cost += config_.weights.gamma * RungSwitchCost(rung, prev_rung);
      if (rung != prev_rung) cost += config_.weights.kappa;
    }
    return cost;
  }

  // Admissible per-interval lower bound used by the solvers' branch-and-
  // bound pruning: for every rung r and throughput w,
  //   RungDistortionTermCost(w, r) >= w * MinDistortionTermPerMbps()
  // up to floating-point rounding (the solvers prune with a tolerance).
  // The buffer and switching terms are bounded below by zero (the buffer
  // cost vanishes at the target and a plan may hold its rung), so this is
  // the whole per-interval bound. Under the default log distortion
  // v(top rung) = 0, so the bound is 0.
  [[nodiscard]] double MinDistortionTermPerMbps() const noexcept {
    return min_distortion_term_per_mbps_;
  }

 private:
  const media::BitrateLadder* ladder_;
  CostModelConfig config_;
  media::Distortion distortion_;
  // Per-rung tables; rung_switch_ is row-major [rung][prev_rung].
  std::vector<double> rung_bitrate_;
  std::vector<double> rung_distortion_;
  std::vector<double> rung_switch_;
  double min_distortion_term_per_mbps_ = 0.0;
};

}  // namespace soda::core
