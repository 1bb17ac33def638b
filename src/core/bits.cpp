#include "core/bits.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/simd.hpp"

namespace lsml::core {

double Rng::gaussian() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  have_spare_ = true;
  return u * factor;
}

BitVec::BitVec(std::size_t n, bool value) : size_(n), words_((n + 63) / 64) {
  if (value) {
    fill(true);
  }
}

std::size_t BitVec::count() const {
  return simd::ops().popcount(words_.data(), words_.size());
}

std::size_t BitVec::count_equal(const BitVec& other) const {
  assert(size_ == other.size_);
  return size_ -
         simd::ops().popcount_xor(words_.data(), other.words_.data(),
                                  words_.size());
}

std::size_t BitVec::count_and(const BitVec& other) const {
  assert(size_ == other.size_);
  return simd::ops().popcount_and(words_.data(), other.words_.data(),
                                  words_.size());
}

std::size_t BitVec::count_andnot(const BitVec& other) const {
  assert(size_ == other.size_);
  return simd::ops().popcount_andnot(words_.data(), other.words_.data(),
                                     words_.size());
}

std::size_t BitVec::count_and2(const BitVec& a, const BitVec& b) const {
  assert(size_ == a.size_ && size_ == b.size_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(
        std::popcount(words_[i] & a.words_[i] & b.words_[i]));
  }
  return total;
}

std::size_t BitVec::count_and_andnot(const BitVec& a, const BitVec& b) const {
  assert(size_ == a.size_ && size_ == b.size_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(
        std::popcount(words_[i] & a.words_[i] & ~b.words_[i]));
  }
  return total;
}

BitVec& BitVec::operator&=(const BitVec& o) {
  assert(size_ == o.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= o.words_[i];
  }
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& o) {
  assert(size_ == o.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= o.words_[i];
  }
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& o) {
  assert(size_ == o.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] ^= o.words_[i];
  }
  return *this;
}

void BitVec::flip() {
  for (auto& w : words_) {
    w = ~w;
  }
  mask_tail();
}

BitVec BitVec::operator&(const BitVec& o) const {
  BitVec r = *this;
  r &= o;
  return r;
}

BitVec BitVec::operator|(const BitVec& o) const {
  BitVec r = *this;
  r |= o;
  return r;
}

BitVec BitVec::operator^(const BitVec& o) const {
  BitVec r = *this;
  r ^= o;
  return r;
}

BitVec BitVec::operator~() const {
  BitVec r = *this;
  r.flip();
  return r;
}

void BitVec::reset(std::size_t n) {
  size_ = n;
  words_.assign((n + 63) / 64, 0);
}

void BitVec::fill(bool v) {
  for (auto& w : words_) {
    w = v ? ~0ULL : 0ULL;
  }
  if (v) {
    mask_tail();
  }
}

void BitVec::randomize(Rng& rng, double p) {
  if (p == 0.5) {
    for (auto& w : words_) {
      w = rng.next();
    }
    mask_tail();
    return;
  }
  fill(false);
  for (std::size_t i = 0; i < size_; ++i) {
    if (rng.flip(p)) {
      set(i, true);
    }
  }
}

std::uint64_t fnv1a(const void* data, std::size_t num_bytes,
                    std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < num_bytes; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 29);
}

std::uint64_t BitVec::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  return h ^ size_;
}

void BitVec::mask_tail() {
  const std::size_t rem = size_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (1ULL << rem) - 1;
  }
}

namespace {

static_assert(std::endian::native == std::endian::little,
              "row packing loads eight characters per word, the first "
              "character in the low byte");

constexpr std::uint64_t kAsciiZeros = 0x3030303030303030ULL;  // "00000000"
constexpr std::uint64_t kByteLowBits = 0x0101010101010101ULL;
/// Multiplier that gathers bit 0 of each byte i into bit 56 + i.
constexpr std::uint64_t kGatherLowBits = 0x0102040810204080ULL;

/// Packs eight '0'/'1' characters (first in the low byte) into the low
/// eight bits of the result, first character in bit 0. Bytes other than
/// '0'/'1' leave a nonzero mark in *bad.
std::uint64_t pack8(std::uint64_t chars, std::uint64_t* bad) {
  const std::uint64_t x = chars ^ kAsciiZeros;  // '0' -> 0, '1' -> 1
  *bad |= x & ~kByteLowBits;
  return (x * kGatherLowBits) >> 56;
}

/// Packs row[0, n), n <= 64, into one word with bit k = row[k]. Reads no
/// byte past row[n - 1].
std::uint64_t pack_chunk(const char* row, std::size_t n, std::uint64_t* bad) {
  std::uint64_t word = 0;
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    std::uint64_t chars = 0;
    std::memcpy(&chars, row + k, 8);
    word |= pack8(chars, bad) << k;
  }
  if (k < n) {
    std::uint64_t chars = kAsciiZeros;  // pad with '0', which packs to 0
    std::memcpy(&chars, row + k, n - k);
    word |= pack8(chars, bad) << k;
  }
  return word;
}

/// In-place 64x64 bit-matrix transpose (Hacker's Delight, section 7-3,
/// widened to 64 bits): afterwards bit r of a[c] holds what bit c of a[r]
/// held.
void transpose64(std::uint64_t* a) {
  std::uint64_t m = 0x00000000ffffffffULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// Overwrites bits [pos, pos + n) of `words`, 1 <= n <= 64, with v (whose
/// bits from n up are zero).
void write_bits(std::uint64_t* words, std::size_t pos, std::size_t n,
                std::uint64_t v) {
  const std::size_t w = pos >> 6;
  const std::size_t s = pos & 63;
  const std::uint64_t mask = n == 64 ? ~0ULL : (1ULL << n) - 1;
  words[w] = (words[w] & ~(mask << s)) | (v << s);
  if (s + n > 64) {
    words[w + 1] = (words[w + 1] & ~(mask >> (64 - s))) | (v >> (64 - s));
  }
}

}  // namespace

std::size_t pack_rows_into_columns(std::span<const std::string_view> rows,
                                   std::size_t offset,
                                   std::span<BitVec> columns) {
  const std::size_t width = columns.size();
  for ([[maybe_unused]] const BitVec& column : columns) {
    assert(column.size() >= offset + rows.size());
  }
  std::uint64_t block[64];
  const char* starts[64];
  for (std::size_t r0 = 0; r0 < rows.size(); r0 += 64) {
    const std::size_t n = std::min<std::size_t>(64, rows.size() - r0);
    // Bit j marks row r0 + j as bad; a row bad as a whole packs as zeros.
    std::uint64_t bad_rows = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::string_view row = rows[r0 + j];
      const bool shaped = row.data() != nullptr && row.size() == width;
      starts[j] = shaped ? row.data() : nullptr;
      bad_rows |= std::uint64_t{!shaped} << j;
    }
    for (std::size_t c0 = 0; c0 < width; c0 += 64) {
      const std::size_t m = std::min<std::size_t>(64, width - c0);
      for (std::size_t j = 0; j < n; ++j) {
        std::uint64_t bad = 0;
        block[j] =
            starts[j] == nullptr ? 0 : pack_chunk(starts[j] + c0, m, &bad);
        bad_rows |= std::uint64_t{bad != 0} << j;
      }
      std::fill(block + n, block + 64, std::uint64_t{0});
      transpose64(block);
      for (std::size_t k = 0; k < m; ++k) {
        write_bits(columns[c0 + k].words(), offset + r0, n, block[k]);
      }
    }
    if (bad_rows != 0) {
      return r0 + static_cast<std::size_t>(std::countr_zero(bad_rows));
    }
  }
  return rows.size();
}

}  // namespace lsml::core
