// Deterministic random number generation: the synthetic trace generators,
// the fault injectors and the storage-fault shim all draw from this one
// generator. The splitmix64 finalizer it seeds with is shared by the table
// hashes and seed derivations.
//
// xoshiro256** (Blackman & Vigna) — small state, excellent statistical
// quality, and identical output on every platform, which keeps bench output
// reproducible run-to-run (std::mt19937's distributions are not guaranteed
// bit-identical across standard libraries, so we also ship our own
// distribution helpers).
//
// The draw members are inline: the trace generator calls them several times
// per record. Their output sequence is part of every generated trace
// (DESIGN.md §6, "Generator exactness"), so none of them may change what it
// draws.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/assert.hpp"

namespace planaria {

/// splitmix64's output finalizer: a bijective 64-bit mix. The one copy in the
/// tree — the table hashes, seed derivations and Rng's seeding all call it,
/// each with its own pre-step (a golden-ratio add or an xor of its inputs).
inline std::uint64_t splitmix_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  /// Seeds the full 256-bit state from a 64-bit seed via splitmix64, per the
  /// xoshiro authors' recommendation. Four distinct inputs through a
  /// bijection: at most one word is zero, never the forbidden all-zero state.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    for (auto& word : s_) {
      seed += 0x9E3779B97F4A7C15ull;
      word = splitmix_finalize(seed);
    }
  }

  /// Uniform 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    PLANARIA_ASSERT(bound > 0);
    // Lemire's multiply-shift rejection method: unbiased and fast.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t t = -bound % bound;
      while (l < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) {
    PLANARIA_ASSERT(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 high bits -> uniform double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial. Draws nothing when p is 0 or 1.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Raw 256-bit state, for checkpoint/restore: restoring state() into a
  /// fresh Rng continues the exact output sequence.
  std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (int i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  std::uint64_t s_[4];
};

/// Approximately Zipf-distributed ranks in [0, n) with exponent s, via
/// rejection-free inverse-CDF over the continuous approximation of the
/// generalized harmonic number H(k) ~ (k^(1-s) - 1) / (1-s) for s != 1,
/// ln(k) for s == 1. The normaliser depends only on (n, s), so it is computed
/// once here rather than per draw; each draw consumes exactly one
/// next_double() (none when n == 1).
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s)
      : n_(n),
        log_(std::abs(s - 1.0) < 1e-9),
        one_minus_s_(1.0 - s),
        inverse_(1.0 / (1.0 - s)) {
    PLANARIA_ASSERT(n > 0);
    const auto nd = static_cast<double>(n);
    h_ = log_ ? std::log(nd)
              : (std::pow(nd, one_minus_s_) - 1.0) / one_minus_s_;
  }

  std::uint64_t operator()(Rng& rng) const {
    if (n_ == 1) return 0;
    const double u = rng.next_double();
    // Keep the operand order ((u * h) * (1 - s)) + 1: reassociating it
    // rounds differently and moves every generated trace.
    const double k = log_ ? std::exp(u * h_)
                          : std::pow(u * h_ * one_minus_s_ + 1.0, inverse_);
    auto rank = static_cast<std::uint64_t>(k);
    if (rank >= n_) rank = n_ - 1;
    return rank;
  }

 private:
  std::uint64_t n_;
  bool log_;
  double one_minus_s_;
  double inverse_;  ///< 1 / (1 - s); unused on the s == 1 branch
  double h_;        ///< log(n) on the s == 1 branch, else H(n)
};

}  // namespace planaria
