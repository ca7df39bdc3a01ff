#pragma once

#include <cstddef>
#include <vector>

#include "sim/random.h"

namespace riptide::cdn {

// Zipf(s) popularity over ranks 1..n — the canonical model for CDN object
// popularity. P(rank = k) ∝ k^-s. Sampling is inverse-CDF with binary
// search over a precomputed table: O(n) setup, O(log n) per draw.
class ZipfDistribution {
 public:
  // Preconditions: n >= 1, exponent >= 0 (0 = uniform).
  ZipfDistribution(std::size_t n, double exponent);

  // Rank in [1, n]; rank 1 is the most popular object.
  std::size_t sample(sim::Rng& rng) const;

  double probability(std::size_t rank) const;

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cdf_[k-1] = P(rank <= k)
};

}  // namespace riptide::cdn
