// Point and body sets in structure-of-arrays layout, plus the generators
// used by the tree-traversal benchmarks: a uniform cube and the Plummer
// model (the standard N-body benchmark distribution, strongly clustered —
// which is what makes Barnes-Hut traversals irregular).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "runtime/xoshiro.hpp"
#include "simd/aligned.hpp"

namespace tb::spatial {

// One point's coordinates: floats, or one point per lane of a simd::batch.
template <class V>
struct Point {
  V x, y, z;
};

struct Bodies {
  simd::aligned_vector<float> x, y, z, mass;

  std::size_t size() const { return x.size(); }

  void resize(std::size_t n) {
    x.resize(n);
    y.resize(n);
    z.resize(n);
    mass.resize(n);
  }

  static Bodies uniform_cube(std::size_t n, std::uint64_t seed = 1234) {
    Bodies b;
    b.resize(n);
    rt::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      b.x[i] = static_cast<float>(rng.uniform01()) * 2.0f - 1.0f;
      b.y[i] = static_cast<float>(rng.uniform01()) * 2.0f - 1.0f;
      b.z[i] = static_cast<float>(rng.uniform01()) * 2.0f - 1.0f;
      b.mass[i] = 1.0f / static_cast<float>(n);
    }
    return b;
  }

  // Plummer sphere (Aarseth, Henon & Wielen 1974 sampling), truncated to
  // keep outliers from blowing up the tree's bounding box.
  static Bodies plummer(std::size_t n, std::uint64_t seed = 1234) {
    Bodies b;
    b.resize(n);
    rt::Xoshiro256 rng(seed);
    constexpr double kScale = 16.0;  // truncation radius
    for (std::size_t i = 0; i < n; ++i) {
      double r;
      do {
        const double m = rng.uniform01() * 0.999;
        r = 1.0 / std::sqrt(std::pow(m, -2.0 / 3.0) - 1.0);
      } while (r > kScale);
      const double ctheta = 2.0 * rng.uniform01() - 1.0;
      const double stheta = std::sqrt(1.0 - ctheta * ctheta);
      const double phi = 2.0 * 3.14159265358979323846 * rng.uniform01();
      b.x[i] = static_cast<float>(r * stheta * std::cos(phi));
      b.y[i] = static_cast<float>(r * stheta * std::sin(phi));
      b.z[i] = static_cast<float>(r * ctheta);
      b.mass[i] = 1.0f / static_cast<float>(n);
    }
    return b;
  }
};

}  // namespace tb::spatial
