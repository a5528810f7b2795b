#include "theory/offline_optimal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/ensure.hpp"

namespace soda::theory {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

OfflineSolution SolveOffline(const core::CostModel& model,
                             std::span<const double> bandwidth_mbps,
                             double initial_buffer_s, media::Rung prev_rung,
                             const OfflineConfig& config) {
  SODA_ENSURE(!bandwidth_mbps.empty(), "need at least one interval");
  SODA_ENSURE(config.buffer_grid >= 3, "buffer grid too coarse");

  const auto& ladder = model.Ladder();
  const int n_rungs = ladder.Count();
  const int grid = config.buffer_grid;
  const double max_buffer = model.Config().max_buffer_s;
  const double dx = max_buffer / static_cast<double>(grid - 1);
  const auto steps = static_cast<int>(bandwidth_mbps.size());

  auto grid_index = [&](double x) {
    return std::clamp(static_cast<int>(std::lround(x / dx)), 0, grid - 1);
  };
  auto grid_value = [&](int i) { return static_cast<double>(i) * dx; };

  // dp[x_bin * n_rungs + r]: min cost after the current interval ending in
  // buffer bin x_bin with last rung r.
  const std::size_t n_states =
      static_cast<std::size_t>(grid) * static_cast<std::size_t>(n_rungs);
  std::vector<double> dp(n_states, kInfinity);
  std::vector<double> next(n_states, kInfinity);
  // Backpointers: parent state index per (step, state), for reconstruction.
  std::vector<std::vector<std::int32_t>> parent(
      static_cast<std::size_t>(steps),
      std::vector<std::int32_t>(n_states, -1));

  auto state_of = [&](int x_bin, media::Rung r) {
    return static_cast<std::size_t>(x_bin) * static_cast<std::size_t>(n_rungs) +
           static_cast<std::size_t>(r);
  };

  // First interval: from the (off-grid) initial state.
  for (media::Rung r = 0; r < n_rungs; ++r) {
    const double raw_next = model.NextBuffer(
        initial_buffer_s, bandwidth_mbps[0], model.RungBitrate(r));
    if (config.hard_buffer_constraints &&
        (raw_next < -1e-9 || raw_next > max_buffer + 1e-9)) {
      continue;
    }
    const double x_next = std::clamp(raw_next, 0.0, max_buffer);
    // prev_rung < 0 drops the switching terms.
    const double cost =
        model.RungIntervalCost(bandwidth_mbps[0], r, prev_rung, x_next);
    const std::size_t s = state_of(grid_index(x_next), r);
    if (cost < dp[s]) {
      dp[s] = cost;
      parent[0][s] = -1;
    }
  }

  // Subsequent intervals.
  for (int n = 1; n < steps; ++n) {
    std::fill(next.begin(), next.end(), kInfinity);
    const double w = bandwidth_mbps[static_cast<std::size_t>(n)];
    for (int xb = 0; xb < grid; ++xb) {
      const double x = grid_value(xb);
      for (media::Rung pr = 0; pr < n_rungs; ++pr) {
        const double base = dp[state_of(xb, pr)];
        if (!std::isfinite(base)) continue;
        for (media::Rung r = 0; r < n_rungs; ++r) {
          const double raw_next = model.NextBuffer(x, w, model.RungBitrate(r));
          if (config.hard_buffer_constraints &&
              (raw_next < -1e-9 || raw_next > max_buffer + 1e-9)) {
            continue;
          }
          const double x_next = std::clamp(raw_next, 0.0, max_buffer);
          // The rung-indexed cost is bit-identical to IntervalCost on the
          // rungs' bitrates, without its three std::log calls.
          const double cost =
              base + model.RungIntervalCost(w, r, pr, x_next);
          const std::size_t s = state_of(grid_index(x_next), r);
          if (cost < next[s]) {
            next[s] = cost;
            parent[static_cast<std::size_t>(n)][s] =
                static_cast<std::int32_t>(state_of(xb, pr));
          }
        }
      }
    }
    dp.swap(next);
  }

  OfflineSolution solution;
  std::size_t best_state = 0;
  double best_cost = kInfinity;
  for (std::size_t s = 0; s < n_states; ++s) {
    if (dp[s] < best_cost) {
      best_cost = dp[s];
      best_state = s;
    }
  }
  if (!std::isfinite(best_cost)) return solution;

  solution.feasible = true;
  solution.total_cost = best_cost;
  solution.rungs.resize(static_cast<std::size_t>(steps));
  solution.buffers_s.resize(static_cast<std::size_t>(steps));
  std::size_t state = best_state;
  for (int n = steps - 1; n >= 0; --n) {
    const int xb = static_cast<int>(state) / n_rungs;
    const auto r = static_cast<media::Rung>(static_cast<int>(state) % n_rungs);
    solution.rungs[static_cast<std::size_t>(n)] = r;
    solution.buffers_s[static_cast<std::size_t>(n)] = grid_value(xb);
    const std::int32_t p = parent[static_cast<std::size_t>(n)][state];
    if (p < 0) break;
    state = static_cast<std::size_t>(p);
  }
  return solution;
}

}  // namespace soda::theory
