#pragma once
// Packed bit vectors used throughout the library.
//
// Datasets store one BitVec per input column and one for the labels, so a
// learner evaluates candidate splits / simulates circuits 64 rows at a time.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/rng.hpp"

namespace lsml::core {

/// Byte-wise FNV-1a over a buffer; chain buffers by passing the previous
/// return value as `seed`. Used for content digests (dataset hashes,
/// benchmark-name ids) whose values key on-disk caches — changing this
/// function requires bumping suite::kResultCacheSchemaVersion.
std::uint64_t fnv1a(const void* data, std::size_t num_bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// SplitMix64-style combine of `v` into running digest `h` (order
/// matters). Same cache-key caveat as fnv1a above.
std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v);

/// Fixed-length vector of bits packed into 64-bit words.
///
/// Bits beyond size() inside the last word are kept at zero (an invariant
/// every mutating operation re-establishes), so popcount-style reductions
/// never need masking.
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t n, bool value = false);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t num_words() const { return words_.size(); }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }
  void set(std::size_t i, bool v) {
    const std::uint64_t mask = 1ULL << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }
  [[nodiscard]] std::uint64_t* words() { return words_.data(); }
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return words_[w]; }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const;

  /// Number of positions where this and other agree. Sizes must match.
  [[nodiscard]] std::size_t count_equal(const BitVec& other) const;

  /// popcount(this & other).
  [[nodiscard]] std::size_t count_and(const BitVec& other) const;

  /// popcount(this & ~other).
  [[nodiscard]] std::size_t count_andnot(const BitVec& other) const;

  /// popcount(this & a & b).
  [[nodiscard]] std::size_t count_and2(const BitVec& a, const BitVec& b) const;

  /// popcount(this & a & ~b).
  [[nodiscard]] std::size_t count_and_andnot(const BitVec& a,
                                             const BitVec& b) const;

  BitVec& operator&=(const BitVec& o);
  BitVec& operator|=(const BitVec& o);
  BitVec& operator^=(const BitVec& o);
  /// Complements all bits (keeps the tail-zero invariant).
  void flip();

  [[nodiscard]] BitVec operator&(const BitVec& o) const;
  [[nodiscard]] BitVec operator|(const BitVec& o) const;
  [[nodiscard]] BitVec operator^(const BitVec& o) const;
  [[nodiscard]] BitVec operator~() const;
  bool operator==(const BitVec& o) const = default;

  void fill(bool v);
  /// Resizes to `n` bits, all zero, reusing the word buffer's capacity —
  /// the scratch-reuse primitive behind SimEngine::extract_into.
  void reset(std::size_t n);
  /// Fills with i.i.d. Bernoulli(p) bits.
  void randomize(Rng& rng, double p = 0.5);

  /// FNV-1a hash of the payload (used to deduplicate sampled rows).
  [[nodiscard]] std::uint64_t hash() const;

  /// Re-establishes the tail-zero invariant: clears bits past size() in
  /// the last word. The one supported way for word-level writers (code
  /// using the mutable words() pointer) to restore the contract after a
  /// raw write; every BitVec operation above maintains it internally.
  void mask_tail();

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Packs minterm rows into bit columns: character c of rows[r] becomes bit
/// `offset + r` of columns[c] ('0' clears it, '1' sets it); bits outside
/// [offset, offset + rows.size()) are left as they are. Every column must
/// hold at least offset + rows.size() bits.
///
/// Returns rows.size() when every row is good, else the index of the first
/// bad row in row order: one whose length is not columns.size(), one that
/// holds a byte other than '0'/'1', or one with a null data() (how callers
/// pass an element that is not a string at all). On failure the columns'
/// bits for the rows in range are unspecified.
///
/// Works 64 rows x 64 columns at a time: eight characters per multiply
/// into one packed row word, then a 64x64 bit transpose per block.
std::size_t pack_rows_into_columns(std::span<const std::string_view> rows,
                                   std::size_t offset,
                                   std::span<BitVec> columns);

}  // namespace lsml::core
