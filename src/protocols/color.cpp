#include "protocols/color.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace byz::proto {

double ell(std::uint32_t d, std::uint32_t r) {
  if (d < 3) throw std::invalid_argument("ell: need d >= 3");
  return std::log2(static_cast<double>(d)) +
         static_cast<double>(r) * std::log2(static_cast<double>(d - 1));
}

double continue_threshold(std::uint32_t i, std::uint32_t d) {
  if (i == 0) throw std::invalid_argument("continue_threshold: phase >= 1");
  const double li = ell(d, i - 1);
  return li - std::log2(li);
}

Color color_at(std::uint64_t color_seed, std::uint32_t node,
               std::uint32_t global_subphase) noexcept {
  return color_at_node(node_color_seed(color_seed, node), global_subphase);
}

Color color_at_node(std::uint64_t node_seed,
                    std::uint32_t global_subphase) noexcept {
  // The color is geometric_color of Xoshiro256(seed). That generator's
  // first output reads only its second state word, which is the second
  // SplitMix64 output of the seed, so compute that word alone. Only an
  // all-zero first output (probability 2^-64) needs the next outputs.
  const std::uint64_t seed = util::mix_seed(node_seed, global_subphase);
  std::uint64_t s1 = seed + 2 * 0x9E3779B97F4A7C15ULL;
  s1 = (s1 ^ (s1 >> 30)) * 0xBF58476D1CE4E5B9ULL;
  s1 = (s1 ^ (s1 >> 27)) * 0x94D049BB133111EBULL;
  s1 ^= s1 >> 31;
  const std::uint64_t first = std::rotl(s1 * 5, 7) * 9;
  if (first != 0) return static_cast<Color>(std::countr_zero(first)) + 1;
  util::Xoshiro256 rng(seed);
  return draw_color(rng);
}

double prob_color_eq(std::uint32_t r) { return std::pow(0.5, r); }

double prob_color_ge(std::uint32_t r) {
  return r <= 1 ? 1.0 : std::pow(0.5, r - 1);
}

double prob_max_color_le(std::uint32_t r, double n) {
  return std::pow(1.0 - std::pow(0.5, r), n);
}

}  // namespace byz::proto
