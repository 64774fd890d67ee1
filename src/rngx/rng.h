// Deterministic, platform-independent random number generation.
//
// varbench reproduces experiments about *sources of randomness*, so the RNG
// layer must be bit-reproducible across platforms and standard libraries.
// std::mt19937 is portable but the std::*_distribution adaptors are not;
// here both the engine (xoshiro256++) and the distributions are our own.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace varbench::rngx {

/// SplitMix64: used to expand a 64-bit seed into engine state and to derive
/// independent stream seeds from (master seed, tag) pairs.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a hash of a string tag, for deriving named sub-streams.
[[nodiscard]] constexpr std::uint64_t hash_tag(std::string_view tag) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : tag) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Derive an independent stream seed from a master seed and a tag. Two
/// different tags give statistically independent streams; the same pair is
/// always the same stream.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master,
                                                  std::string_view tag) {
  std::uint64_t s = master ^ hash_tag(tag);
  return splitmix64(s);
}

/// Full serializable state of an Rng — checkpointing RNG streams is what
/// makes interrupted-and-resumed trainings bit-identical to uninterrupted
/// ones (the paper's Appendix A reproducibility protocol).
struct RngState {
  std::array<std::uint64_t, 4> engine{};
  double cached_normal = 0.0;
  bool has_cached_normal = false;

  friend bool operator==(const RngState&, const RngState&) = default;
};

/// xoshiro256++ engine (Blackman & Vigna). Fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  [[nodiscard]] RngState save_state() const {
    return {state_, cached_normal_, has_cached_normal_};
  }
  void load_state(const RngState& s) {
    state_ = s.engine;
    cached_normal_ = s.cached_normal;
    has_cached_normal_ = s.has_cached_normal;
  }

  [[nodiscard]] std::uint64_t next_u64();
  std::uint64_t operator()() { return next_u64(); }

  /// Block draw: calls `f(i, r)` for i in [0, n) with the same n draws, in
  /// the same order, as n next_u64() calls, and leaves the same state and
  /// the same rngx.draws totals (sum and count). The engine step inlines
  /// into the caller's loop on a local copy of the state, so the kernels
  /// pay no call per draw; `f` must not touch this Rng.
  template <typename F>
  void for_each_u64(std::size_t n, F&& f) {
    count_draws(n);
    std::array<std::uint64_t, 4> s = state_;
    for (std::size_t i = 0; i < n; ++i) f(i, step(s));
    state_ = s;
  }

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  /// Log-uniform double in [lo, hi), lo > 0.
  [[nodiscard]] double log_uniform(double lo, double hi);
  /// Uniform integer in [0, n). Unbiased (rejection sampling).
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box–Muller (deterministic cache of the pair).
  [[nodiscard]] double normal();
  [[nodiscard]] double normal(double mean, double stddev);
  /// Bernoulli draw.
  [[nodiscard]] bool bernoulli(double p);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// n indices drawn uniformly with replacement from [0, pool) — the bootstrap
  /// resampling primitive.
  [[nodiscard]] std::vector<std::size_t> sample_with_replacement(
      std::size_t pool, std::size_t n);

  /// A derived, independent child generator (for nested procedures that must
  /// not perturb the parent's stream).
  [[nodiscard]] Rng split(std::string_view tag);

 private:
  /// The xoshiro256++ step — the only definition of the engine.
  static std::uint64_t step(std::array<std::uint64_t, 4>& s) {
    const std::uint64_t result = std::rotl(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = std::rotl(s[3], 45);
    return result;
  }

  /// Records n rngx.draws events, as n next_u64() calls would.
  static void count_draws(std::uint64_t n);

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace varbench::rngx
