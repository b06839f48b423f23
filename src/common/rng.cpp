#include "common/rng.h"

#include <cmath>

namespace udwn {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
    state_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  UDWN_EXPECT(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t n) {
  UDWN_EXPECT(n > 0);
  // Lemire multiply-shift; modulo bias is < 2^-64 * n, negligible.
  __extension__ using u128 = unsigned __int128;
  const u128 product = static_cast<u128>(next()) * n;
  return static_cast<std::uint64_t>(product >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  UDWN_EXPECT(lo <= hi);
  // All arithmetic in uint64: `hi - lo` overflows int64 for extreme spans
  // (UB), and the full-range span wraps to 0 (drawn via a raw next()).
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  const std::uint64_t offset = span == 0 ? next() : below(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
}

Rng Rng::split() {
  Rng child(0);
  child.state_ = {next(), next(), next(), next()};
  if (child.state_[0] == 0 && child.state_[1] == 0 && child.state_[2] == 0 &&
      child.state_[3] == 0)
    child.state_[0] = 1;
  return child;
}

}  // namespace udwn
