#include "cdn/zipf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace riptide::cdn {

ZipfDistribution::ZipfDistribution(std::size_t n, double exponent) {
  if (n == 0) throw std::invalid_argument("ZipfDistribution: n == 0");
  if (exponent < 0.0) {
    throw std::invalid_argument("ZipfDistribution: negative exponent");
  }
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    acc += std::pow(static_cast<double>(k), -exponent);
    cdf_[k - 1] = acc;
  }
  for (auto& v : cdf_) v /= acc;  // normalize
  cdf_.back() = 1.0;              // guard against FP residue
}

std::size_t ZipfDistribution::sample(sim::Rng& rng) const {
  const double u = rng.uniform(0.0, 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

double ZipfDistribution::probability(std::size_t rank) const {
  if (rank < 1 || rank > cdf_.size()) return 0.0;
  return rank == 1 ? cdf_[0] : cdf_[rank - 1] - cdf_[rank - 2];
}

}  // namespace riptide::cdn
