#include "campaign/adaptive.h"

#include <cmath>
#include <limits>

namespace robustify::campaign {

double WilsonHalfWidth(int successes, int trials) {
  if (trials <= 0) return std::numeric_limits<double>::infinity();
  constexpr double z = 1.959963984540054;  // Phi^{-1}(0.975)
  constexpr double z2 = z * z;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double denom = 1.0 + z2 / n;
  return z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
}

CellController::CellController(const AdaptiveConfig& config) : config_(config) {
  if (config_.min_trials < 1) config_.min_trials = 1;
  if (config_.max_trials < config_.min_trials) config_.max_trials = config_.min_trials;
}

void CellController::Record(bool success) {
  ++trials_;
  if (success) ++successes_;
  if (trials_ >= config_.min_trials &&
      WilsonHalfWidth(successes_, trials_) <= config_.ci_half_width) {
    done_ = true;
    settled_ = true;
  } else if (trials_ >= config_.max_trials) {
    done_ = true;
  }
}

bool CellController::CouldFireAt(int n) const {
  if (n >= config_.max_trials) return true;
  if (n < config_.min_trials) return false;
  // The half-width at fixed n falls as the success count moves away from
  // n / 2, so over the reachable counts [successes_, successes_ + n -
  // trials_] it is smallest at one of the two ends.
  const int fewest = successes_;
  const int most = successes_ + (n - trials_);
  return WilsonHalfWidth(fewest, n) <= config_.ci_half_width ||
         WilsonHalfWidth(most, n) <= config_.ci_half_width;
}

int CellController::CertainHorizon() {
  if (done_) return trials_;
  if (config_.min_trials == config_.max_trials || !(config_.ci_half_width > 0.0)) {
    return config_.max_trials;
  }
  int n = horizon_ > trials_ ? horizon_ : trials_ + 1;
  while (!CouldFireAt(n)) ++n;
  horizon_ = n;
  return n;
}

}  // namespace robustify::campaign
