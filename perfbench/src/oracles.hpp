// Answer fingerprints the workloads compare against their set-up oracles.
#pragma once

#include <cstdint>
#include <string>

#include "apps/knn.hpp"

namespace pb {

// One k-best distance as the knn digest hashes it (fixed-point at 1e-6, the
// schedule-independent form bench/serve_latency.cpp and the suite use).
inline std::uint64_t knn_bits(float d) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<double>(d) * 1e6));
}

// FNV-1a over every query's final k-best distances.
inline std::string knn_digest(const tb::apps::KnnState& state, std::size_t queries) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::int32_t q = 0; q < static_cast<std::int32_t>(queries); ++q) {
    for (const float d : state.distances(q)) h = (h ^ knn_bits(d)) * 1099511628211ull;
  }
  return std::to_string(h);
}

}  // namespace pb
