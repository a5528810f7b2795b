#include "predict/quantile.hpp"

#include <vector>

#include "util/ensure.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace soda::predict {

QuantilePredictor::QuantilePredictor(double percentile, int window)
    : percentile_(percentile), window_(window) {
  SODA_ENSURE(percentile > 0.0 && percentile < 100.0,
              "percentile must be in (0, 100)");
  SODA_ENSURE(window > 0, "window must be positive");
}

void QuantilePredictor::Observe(const DownloadObservation& observation) {
  const double mbps = observation.MeasuredMbps();
  if (mbps <= 0.0) return;
  samples_mbps_.push_back(mbps);
  while (samples_mbps_.size() > static_cast<std::size_t>(window_)) {
    samples_mbps_.pop_front();
  }
}

std::vector<double> QuantilePredictor::PredictHorizon(double /*now_s*/,
                                                      int horizon,
                                                      double /*dt_s*/) {
  SODA_ENSURE(horizon > 0, "horizon must be positive");
  double value = kDefaultColdStartMbps;
  if (!samples_mbps_.empty()) {
    value = Percentile(
        std::vector<double>(samples_mbps_.begin(), samples_mbps_.end()),
        percentile_);
    if (value <= 0.0) value = kDefaultColdStartMbps;
  }
  return std::vector<double>(static_cast<std::size_t>(horizon), value);
}

void QuantilePredictor::Reset() { samples_mbps_.clear(); }

std::string QuantilePredictor::Name() const {
  std::string name = "P";
  name += FormatDouble(percentile_, 0);
  return name;
}

}  // namespace soda::predict
