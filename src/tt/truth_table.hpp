#pragma once
// Dynamic truth tables over up to 16 variables.
//
// Used wherever a complete function over a small support is manipulated:
// LUT contents, cut functions during AIG rewriting, neuron-to-LUT
// conversion, and ISOP-based resynthesis.

#include <cstdint>
#include <vector>

namespace lsml::tt {

inline constexpr int kMaxVars = 16;

/// Truth table of a Boolean function over `num_vars` variables.
/// Bit m of the table is f(m) where variable i is bit i of the minterm m.
class TruthTable {
 public:
  TruthTable() : TruthTable(0) {}
  explicit TruthTable(int num_vars);

  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] std::uint64_t num_minterms() const {
    return 1ULL << num_vars_;
  }

  [[nodiscard]] bool get(std::uint64_t minterm) const {
    return (words_[minterm >> 6] >> (minterm & 63)) & 1ULL;
  }
  void set(std::uint64_t minterm, bool v);

  /// The projection function of variable `var`.
  static TruthTable var(int num_vars, int var);
  /// Table whose every 64-minterm word is `word` (see word tables below);
  /// below 6 variables only the low 2^num_vars bits are kept.
  static TruthTable from_word(int num_vars, std::uint64_t word);
  static TruthTable constant(int num_vars, bool value);

  [[nodiscard]] std::uint64_t count_ones() const;
  [[nodiscard]] bool is_const0() const;
  [[nodiscard]] bool is_const1() const;

  TruthTable& operator&=(const TruthTable& o);
  TruthTable& operator|=(const TruthTable& o);
  TruthTable& operator^=(const TruthTable& o);
  [[nodiscard]] TruthTable operator&(const TruthTable& o) const;
  [[nodiscard]] TruthTable operator|(const TruthTable& o) const;
  [[nodiscard]] TruthTable operator^(const TruthTable& o) const;
  [[nodiscard]] TruthTable operator~() const;
  bool operator==(const TruthTable& o) const = default;

  /// Positive / negative cofactor with respect to `var` (same num_vars).
  [[nodiscard]] TruthTable cofactor(int var, bool value) const;

  /// True if the function depends on `var`.
  [[nodiscard]] bool depends_on(int var) const;

  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }

 private:
  int num_vars_ = 0;
  std::vector<std::uint64_t> words_;
  void mask_tail();
};

/// A product term over a small support: variable i appears positively if
/// bit i of `pos` is set, negatively if bit i of `neg` is set.
struct SmallCube {
  std::uint32_t pos = 0;
  std::uint32_t neg = 0;

  [[nodiscard]] int num_literals() const;
  bool operator==(const SmallCube&) const = default;
};

// ------------------------------------------------------------ word tables
// A function of at most 6 variables also fits a bare 64-bit word, which is
// how the cut rewriter and the word ISOP kernel handle it without touching
// the heap. A word table of n < 6 variables is stored replicated: bit m
// equals bit m mod 2^n, so it reads the same under every value of
// variables n..5, and ~, &, | and the cofactors keep it that way.

inline constexpr int kWordVars = 6;

/// Projection of variable i as a word table.
inline constexpr std::uint64_t kWordVarMask[kWordVars] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

/// Cofactor of a word table with respect to variable `var` < 6 (the result
/// no longer depends on `var`). TruthTable::cofactor applies it per word.
[[nodiscard]] inline std::uint64_t word_cofactor(std::uint64_t word, int var,
                                                 bool value) {
  const std::uint64_t mask = kWordVarMask[var];
  const int shift = 1 << var;
  return value ? (word & mask) | ((word & mask) >> shift)
               : (word & ~mask) | ((word & ~mask) << shift);
}

/// Replicates the low 2^num_vars bits of `bits` across the word.
[[nodiscard]] std::uint64_t word_replicate(std::uint64_t bits, int num_vars);

/// Re-expresses a word table over k = popcount(placement) variables in 6:
/// variable i moves to the position of the i-th set bit of the 6-bit mask
/// `placement`, and the result is replicated over the positions left out.
/// This is how a cut function is carried over to a superset of its sorted
/// leaves: at most k delta swaps, top variable first.
[[nodiscard]] std::uint64_t word_stretch(std::uint64_t word,
                                         std::uint32_t placement);

/// Truth table of a single cube.
TruthTable cube_to_tt(const SmallCube& cube, int num_vars);

/// Truth table of a sum of cubes.
TruthTable sop_to_tt(const std::vector<SmallCube>& cubes, int num_vars);

}  // namespace lsml::tt
