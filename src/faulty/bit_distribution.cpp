#include "faulty/bit_distribution.h"

#include <cmath>

namespace robustify::faulty {

namespace {

std::array<double, kWordBits> ModelWeights(BitModel model) {
  std::array<double, kWordBits> w{};
  switch (model) {
    case BitModel::kBimodal: {
      // Low mode: short combinational paths, geometric decay upward from
      // bit 0.  High mode: the long carry chains feeding the top mantissa
      // bits, peaked just below the exponent boundary.  Exponent and sign
      // upsets are rare but present (they are what makes faults
      // occasionally catastrophic rather than merely noisy).
      for (int b = 0; b <= 11; ++b) {
        w[static_cast<std::size_t>(b)] = 0.115 * std::exp(-0.30 * b);
      }
      for (int b = 40; b <= 51; ++b) {
        w[static_cast<std::size_t>(b)] = 0.125 * std::exp(-0.35 * (51 - b));
      }
      for (int b = 12; b <= 39; ++b) {
        w[static_cast<std::size_t>(b)] = 0.0008;  // the valley
      }
      for (int b = kExponentLow; b <= 62; ++b) {  // full exponent field
        w[static_cast<std::size_t>(b)] = 0.006 / (b - kExponentLow + 1);
      }
      w[kSignBit] = 0.012;
      break;
    }
    case BitModel::kUniform:
      w.fill(1.0);
      break;
    case BitModel::kMsbOnly:
      for (int b = kExponentLow; b < kWordBits; ++b) w[static_cast<std::size_t>(b)] = 1.0;
      break;
    case BitModel::kLsbOnly:
      for (int b = 0; b <= 11; ++b) w[static_cast<std::size_t>(b)] = 1.0;
      break;
  }
  return w;
}

}  // namespace

BitDistribution::BitDistribution(const std::array<double, kWordBits>& weights)
    : weights_(weights) {
  Normalize();
  BuildAliasTable();
}

BitDistribution::BitDistribution(BitModel model) : weights_(ModelWeights(model)) {
  Normalize();
  BuildAliasTable();
}

void BitDistribution::Normalize() {
  double total = 0.0;
  for (double w : weights_) total += w;
  if (total <= 0.0) {
    weights_.fill(1.0 / kWordBits);
  } else {
    for (double& w : weights_) w /= total;
  }
}

void BitDistribution::BuildAliasTable() {
  BuildWalkerAliasTable(weights_.data(), kWordBits, stay_threshold_.data(),
                        alias_.data());
}

const BitDistribution& SharedBitDistribution(BitModel model) {
  // Magic statics: built once, thread-safe, immutable afterwards.
  static const BitDistribution bimodal(BitModel::kBimodal);
  static const BitDistribution uniform(BitModel::kUniform);
  static const BitDistribution msb(BitModel::kMsbOnly);
  static const BitDistribution lsb(BitModel::kLsbOnly);
  switch (model) {
    case BitModel::kBimodal: return bimodal;
    case BitModel::kUniform: return uniform;
    case BitModel::kMsbOnly: return msb;
    case BitModel::kLsbOnly: return lsb;
  }
  return bimodal;
}

}  // namespace robustify::faulty
