/// \file rng.hpp
/// \brief Small deterministic PRNG (SplitMix64) for workload generation —
///        reproducible across platforms, no <random> distribution variance —
///        plus the process-wide seed plumbing: every randomized test and
///        bench derives its seed from global_seed(), which honors the
///        VMP_SEED environment variable, so any failure seen in a log is
///        reproducible by exporting the printed seed.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "hypercube/check.hpp"

namespace vmp {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  [[nodiscard]] std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).
  [[nodiscard]] std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// The VMP_SEED environment variable, read afresh on every call: a decimal
/// number, or a hex one with a 0x/0X prefix, gives that seed; unset or
/// empty gives a fixed default.  Anything else (a sign, a blank, trailing
/// text, more than 64 bits) throws vmp::Error naming the variable and its
/// value.
[[nodiscard]] inline std::uint64_t env_seed() {
  const char* s = std::getenv("VMP_SEED");
  if (s == nullptr || *s == '\0') return 20260806;
  const bool hex = s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  std::uint64_t v = 0;
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] =
      std::from_chars(hex ? s + 2 : s, end, v, hex ? 16 : 10);
  if (ec != std::errc{} || ptr != end)
    throw Error("VMP_SEED=\"" + std::string(s) +
                "\" is not a seed (a decimal number, or hex with a 0x "
                "prefix)");
  return v;
}

/// The process-wide base seed: env_seed(), read once; the same value is
/// returned for the process's lifetime, so every consumer in a run agrees
/// on it.
[[nodiscard]] inline std::uint64_t global_seed() {
  static const std::uint64_t seed = env_seed();
  return seed;
}

/// global_seed(), announced on stdout so the effective seed of any
/// randomized test or bench run survives in its log:
///   [who] effective seed: N (set VMP_SEED to override)
[[nodiscard]] inline std::uint64_t announce_seed(const char* who) {
  const std::uint64_t seed = global_seed();
  std::printf("[%s] effective seed: %llu (set VMP_SEED to override)\n", who,
              static_cast<unsigned long long>(seed));
  std::fflush(stdout);
  return seed;
}

}  // namespace vmp
