// Stable LSD radix sort on a signed 64-bit key.
//
// The post-run analyses (analysis/validity, analysis/recount) order
// O(subtasks) records by slot or by tick instant.  Keys are integers
// with a range far below 2^64 in practice, so a least-significant-digit
// radix sort over (key - min) beats a comparison sort: the number of
// passes follows the key range (with 11-bit digits, slot keys take 1-2
// passes and tick keys about 3), each pass is one histogram read and one
// scatter, and a pass whose digit is constant across the input is
// skipped.  Digits narrow below 11 bits for short inputs (one per-
// processor lane of a few hundred placements) so that clearing and
// summing the buckets stays proportional to the input.
//
// The caller owns the scratch buffer (it grows to the input size), so
// repeated sorts — e.g. one per processor lane of a flat array — share
// one allocation.  Memory is O(n) and never depends on the key range.
// Below kRadixCutoff elements a stable insertion sort is used instead.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace pfair {

inline constexpr std::size_t kRadixCutoff = 64;

/// Sorts `v` stably by `key(element)` (a signed 64-bit integer), using
/// `scratch` as the ping-pong buffer (grown to v.size() if smaller).
template <class T, class Key>
void radix_sort(std::span<T> v, std::vector<T>& scratch, Key key) {
  const std::size_t n = v.size();
  if (n < kRadixCutoff) {
    for (std::size_t i = 1; i < n; ++i) {
      T x = std::move(v[i]);
      const std::int64_t kx = key(x);
      std::size_t j = i;
      for (; j > 0 && key(v[j - 1]) > kx; --j) v[j] = std::move(v[j - 1]);
      v[j] = std::move(x);
    }
    return;
  }

  std::int64_t lo = key(v[0]);
  std::int64_t hi = lo;
  for (const T& x : v) {
    const std::int64_t k = key(x);
    lo = k < lo ? k : lo;
    hi = k > hi ? k : hi;
  }
  // Unsigned wrap-around makes hi - lo exact even for the full
  // INT64_MIN..INT64_MAX span.
  const auto base = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - base;
  if (range == 0) return;

  constexpr int kMaxDigitBits = 11;
  const int digit_bits =
      std::clamp(static_cast<int>(std::bit_width(n)) - 1, 4, kMaxDigitBits);
  const std::size_t buckets = std::size_t{1} << digit_bits;
  const auto bits = static_cast<int>(std::bit_width(range));
  if (scratch.size() < n) scratch.resize(n);
  T* src = v.data();
  T* dst = scratch.data();
  std::array<std::size_t, std::size_t{1} << kMaxDigitBits> count;
  for (int shift = 0; shift < bits; shift += digit_bits) {
    const auto digit = [&](const T& x) {
      return static_cast<std::size_t>(
          ((static_cast<std::uint64_t>(key(x)) - base) >> shift) &
          (buckets - 1));
    };
    std::fill_n(count.begin(), buckets, 0);
    for (std::size_t i = 0; i < n; ++i) ++count[digit(src[i])];
    if (count[digit(src[0])] == n) continue;  // digit constant: no-op pass
    std::size_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      sum += std::exchange(count[b], sum);
    }
    for (std::size_t i = 0; i < n; ++i) dst[count[digit(src[i])]++] = src[i];
    std::swap(src, dst);
  }
  if (src != v.data()) std::copy(src, src + n, v.data());
}

}  // namespace pfair
