#include "tt/truth_table.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace lsml::tt {

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("TruthTable: unsupported variable count");
  }
  const std::uint64_t bits = 1ULL << num_vars;
  words_.assign(bits <= 64 ? 1 : bits / 64, 0);
}

void TruthTable::set(std::uint64_t minterm, bool v) {
  const std::uint64_t mask = 1ULL << (minterm & 63);
  if (v) {
    words_[minterm >> 6] |= mask;
  } else {
    words_[minterm >> 6] &= ~mask;
  }
}

TruthTable TruthTable::var(int num_vars, int v) {
  assert(v >= 0 && v < num_vars);
  TruthTable t(num_vars);
  if (v < 6) {
    for (auto& w : t.words_) {
      w = kWordVarMask[v];
    }
  } else {
    // Variable index >= 6: whole words alternate in blocks of 2^(v-6).
    const std::size_t block = 1ULL << (v - 6);
    for (std::size_t i = 0; i < t.words_.size(); ++i) {
      if ((i / block) & 1) {
        t.words_[i] = ~0ULL;
      }
    }
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_word(int num_vars, std::uint64_t word) {
  TruthTable t(num_vars);
  for (auto& w : t.words_) {
    w = word;
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::constant(int num_vars, bool value) {
  TruthTable t(num_vars);
  if (value) {
    for (auto& w : t.words_) {
      w = ~0ULL;
    }
    t.mask_tail();
  }
  return t;
}

std::uint64_t TruthTable::count_ones() const {
  std::uint64_t total = 0;
  for (std::uint64_t w : words_) {
    total += static_cast<std::uint64_t>(std::popcount(w));
  }
  return total;
}

bool TruthTable::is_const0() const {
  for (std::uint64_t w : words_) {
    if (w != 0) {
      return false;
    }
  }
  return true;
}

bool TruthTable::is_const1() const { return count_ones() == num_minterms(); }

TruthTable& TruthTable::operator&=(const TruthTable& o) {
  assert(num_vars_ == o.num_vars_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= o.words_[i];
  }
  return *this;
}

TruthTable& TruthTable::operator|=(const TruthTable& o) {
  assert(num_vars_ == o.num_vars_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= o.words_[i];
  }
  return *this;
}

TruthTable& TruthTable::operator^=(const TruthTable& o) {
  assert(num_vars_ == o.num_vars_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] ^= o.words_[i];
  }
  return *this;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  TruthTable r = *this;
  r &= o;
  return r;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  TruthTable r = *this;
  r |= o;
  return r;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  TruthTable r = *this;
  r ^= o;
  return r;
}

TruthTable TruthTable::operator~() const {
  TruthTable r = *this;
  for (auto& w : r.words_) {
    w = ~w;
  }
  r.mask_tail();
  return r;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
  TruthTable r = *this;
  if (var < kWordVars) {
    for (auto& w : r.words_) {
      w = word_cofactor(w, var, value);
    }
  } else {
    const std::size_t block = 1ULL << (var - 6);
    for (std::size_t i = 0; i < r.words_.size(); ++i) {
      const bool in_high = (i / block) & 1;
      if (value != in_high) {
        // Copy from the sibling block.
        r.words_[i] = words_[value ? i + block : i - block];
      }
    }
  }
  return r;
}

bool TruthTable::depends_on(int var) const {
  return cofactor(var, false) != cofactor(var, true);
}

void TruthTable::mask_tail() {
  if (num_vars_ < 6) {
    words_[0] &= (1ULL << (1ULL << num_vars_)) - 1;
  }
}

std::uint64_t word_replicate(std::uint64_t bits, int num_vars) {
  assert(num_vars >= 0 && num_vars <= kWordVars);
  if (num_vars == kWordVars) {
    return bits;
  }
  const int width = 1 << num_vars;
  std::uint64_t out = bits & ((1ULL << width) - 1);
  for (int b = width; b < 64; b <<= 1) {
    out |= out << b;
  }
  return out;
}

std::uint64_t word_stretch(std::uint64_t word, std::uint32_t placement) {
  assert(placement < (1u << kWordVars));
  int var = std::popcount(placement);
  for (int pos = kWordVars - 1; pos >= 0; --pos) {
    if (!((placement >> pos) & 1)) {
      continue;
    }
    --var;
    if (var != pos) {
      // Delta swap of variables var < pos: exchange the minterms with
      // (var, pos) = (1, 0) and (0, 1). Position pos is free, since every
      // variable above var already moved up, so this is a plain move.
      const int shift = (1 << pos) - (1 << var);
      const std::uint64_t mask = kWordVarMask[var] & ~kWordVarMask[pos];
      const std::uint64_t delta = (word ^ (word >> shift)) & mask;
      word ^= delta | (delta << shift);
    }
  }
  return word;
}

int SmallCube::num_literals() const {
  return std::popcount(pos) + std::popcount(neg);
}

TruthTable cube_to_tt(const SmallCube& cube, int num_vars) {
  TruthTable t = TruthTable::constant(num_vars, true);
  for (int v = 0; v < num_vars; ++v) {
    if (cube.pos & (1u << v)) {
      t &= TruthTable::var(num_vars, v);
    }
    if (cube.neg & (1u << v)) {
      t &= ~TruthTable::var(num_vars, v);
    }
  }
  return t;
}

TruthTable sop_to_tt(const std::vector<SmallCube>& cubes, int num_vars) {
  TruthTable t = TruthTable::constant(num_vars, false);
  for (const auto& cube : cubes) {
    t |= cube_to_tt(cube, num_vars);
  }
  return t;
}

}  // namespace lsml::tt
