// Truth table and ISOP tests, including the ISOP sandwich property
// on <= cover <= on|dc over randomized incompletely-specified functions,
// and cross-checks of the word kernels (isop_word, word_stretch) against
// a frozen TruthTable reference and brute-force minterm expansion.

#include <gtest/gtest.h>

#include <bit>

#include "core/rng.hpp"
#include "tt/isop.hpp"
#include "tt/truth_table.hpp"

namespace lsml::tt {
namespace {

TruthTable random_tt(int vars, core::Rng& rng) {
  TruthTable t(vars);
  for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
    if (rng.flip(0.5)) {
      t.set(m, true);
    }
  }
  return t;
}

TEST(TruthTable, VarProjection) {
  for (int n = 1; n <= 8; ++n) {
    for (int v = 0; v < n; ++v) {
      const TruthTable t = TruthTable::var(n, v);
      for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
        EXPECT_EQ(t.get(m), ((m >> v) & 1) == 1);
      }
    }
  }
}

TEST(TruthTable, ConstantAndCounts) {
  const TruthTable zero = TruthTable::constant(5, false);
  const TruthTable one = TruthTable::constant(5, true);
  EXPECT_TRUE(zero.is_const0());
  EXPECT_TRUE(one.is_const1());
  EXPECT_EQ(one.count_ones(), 32u);
}

TEST(TruthTable, OperatorsMatchBitwiseSemantics) {
  core::Rng rng(11);
  const TruthTable a = random_tt(7, rng);
  const TruthTable b = random_tt(7, rng);
  const TruthTable t_and = a & b;
  const TruthTable t_or = a | b;
  const TruthTable t_xor = a ^ b;
  const TruthTable t_not = ~a;
  for (std::uint64_t m = 0; m < a.num_minterms(); ++m) {
    EXPECT_EQ(t_and.get(m), a.get(m) && b.get(m));
    EXPECT_EQ(t_or.get(m), a.get(m) || b.get(m));
    EXPECT_EQ(t_xor.get(m), a.get(m) != b.get(m));
    EXPECT_EQ(t_not.get(m), !a.get(m));
  }
}

TEST(TruthTable, CofactorsAndSupport) {
  // f = x0 & x2 over 3 vars.
  const TruthTable f =
      TruthTable::var(3, 0) & TruthTable::var(3, 2);
  EXPECT_TRUE(f.depends_on(0));
  EXPECT_FALSE(f.depends_on(1));
  EXPECT_TRUE(f.depends_on(2));
  EXPECT_TRUE(f.cofactor(0, false).is_const0());
  EXPECT_EQ(f.cofactor(0, true), TruthTable::var(3, 2));
}

TEST(TruthTable, CofactorHighVariables) {
  core::Rng rng(13);
  const TruthTable f = random_tt(9, rng);
  for (int v = 0; v < 9; ++v) {
    const TruthTable c0 = f.cofactor(v, false);
    const TruthTable c1 = f.cofactor(v, true);
    for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
      const std::uint64_t m0 = m & ~(1ULL << v);
      const std::uint64_t m1 = m | (1ULL << v);
      EXPECT_EQ(c0.get(m), f.get(m0));
      EXPECT_EQ(c1.get(m), f.get(m1));
    }
  }
}

TEST(SmallCube, TruthTableOfCube) {
  SmallCube c;
  c.pos = 0b001;  // x0
  c.neg = 0b100;  // !x2
  const TruthTable t = cube_to_tt(c, 3);
  for (std::uint64_t m = 0; m < 8; ++m) {
    EXPECT_EQ(t.get(m), ((m & 1) != 0) && ((m & 4) == 0));
  }
  EXPECT_EQ(c.num_literals(), 2);
}

TEST(Isop, ExactCoverOfCompletelySpecified) {
  core::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const int vars = 1 + static_cast<int>(rng.below(8));
    const TruthTable f = random_tt(vars, rng);
    const auto cover = isop(f);
    EXPECT_EQ(sop_to_tt(cover, vars), f);
  }
}

class IsopDontCare : public ::testing::TestWithParam<int> {};

TEST_P(IsopDontCare, SandwichProperty) {
  core::Rng rng(GetParam());
  const int vars = 2 + GetParam() % 7;
  const TruthTable on = random_tt(vars, rng);
  TruthTable dc = random_tt(vars, rng);
  dc = dc & ~on;  // disjoint dc for a cleaner check
  const auto cover = isop(on, dc);
  const TruthTable result = sop_to_tt(cover, vars);
  // on <= result <= on | dc
  EXPECT_TRUE((on & ~result).is_const0());
  EXPECT_TRUE((result & ~(on | dc)).is_const0());
}

TEST_P(IsopDontCare, DontCaresNeverIncreaseCubeCount) {
  core::Rng rng(GetParam() * 31 + 5);
  const int vars = 4 + GetParam() % 4;
  const TruthTable on = random_tt(vars, rng);
  TruthTable dc = random_tt(vars, rng);
  dc = dc & ~on;
  EXPECT_LE(isop(on, dc).size(), isop(on).size() * 2 + 2)
      << "don't-cares should usually help and must never blow up the cover";
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsopDontCare, ::testing::Range(1, 25));

TEST(Isop, GateCost) {
  EXPECT_EQ(sop_gate_cost({}), 0);
  SmallCube wide;
  wide.pos = 0b1111;
  EXPECT_EQ(sop_gate_cost({wide}), 3);  // 4 literals -> 3 AND2
  SmallCube single;
  single.pos = 0b1;
  EXPECT_EQ(sop_gate_cost({single, wide}), 4);  // 0 + 3 + 1 OR
}

// ------------------------------------------------------------ word kernels

// Frozen copy of the TruthTable-only Minato-Morreale recursion that
// isop() ran for every table before the word kernel existed. It is the
// reference the kernel must reproduce cube for cube, in the same order.
std::vector<SmallCube> reference_isop_rec(const TruthTable& on,
                                          const TruthTable& upper,
                                          int num_vars, int var,
                                          TruthTable* result) {
  if (on.is_const0()) {
    *result = TruthTable::constant(num_vars, false);
    return {};
  }
  if (upper.is_const1()) {
    *result = TruthTable::constant(num_vars, true);
    return {SmallCube{}};
  }
  int v = var - 1;
  while (v >= 0 && !on.depends_on(v) && !upper.depends_on(v)) {
    --v;
  }
  const TruthTable on0 = on.cofactor(v, false);
  const TruthTable on1 = on.cofactor(v, true);
  const TruthTable up0 = upper.cofactor(v, false);
  const TruthTable up1 = upper.cofactor(v, true);
  TruthTable res0;
  auto cover0 = reference_isop_rec(on0 & ~up1, up0, num_vars, v, &res0);
  TruthTable res1;
  auto cover1 = reference_isop_rec(on1 & ~up0, up1, num_vars, v, &res1);
  const TruthTable on_rest = (on0 & ~res0) | (on1 & ~res1);
  TruthTable res2;
  auto cover2 = reference_isop_rec(on_rest, up0 & up1, num_vars, v, &res2);
  const TruthTable tv = TruthTable::var(num_vars, v);
  *result = (res0 & ~tv) | (res1 & tv) | res2;
  std::vector<SmallCube> out;
  for (auto cube : cover0) {
    cube.neg |= 1u << v;
    out.push_back(cube);
  }
  for (auto cube : cover1) {
    cube.pos |= 1u << v;
    out.push_back(cube);
  }
  out.insert(out.end(), cover2.begin(), cover2.end());
  return out;
}

std::vector<SmallCube> reference_isop(const TruthTable& on,
                                      const TruthTable& dc) {
  TruthTable result;
  return reference_isop_rec(on, on | dc, on.num_vars(), on.num_vars(),
                            &result);
}

// Low 2^vars bits of a word as a TruthTable.
TruthTable table_of(std::uint64_t bits, int vars) {
  TruthTable t(vars);
  for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
    t.set(m, (bits >> m) & 1);
  }
  return t;
}

// Checks isop_word on the replicated words against the reference and
// against isop() on the equivalent TruthTables.
void expect_word_isop_matches(std::uint64_t on, std::uint64_t dc, int vars) {
  const TruthTable on_t = table_of(on, vars);
  const TruthTable dc_t = table_of(dc, vars);
  const auto expected = reference_isop(on_t, dc_t);
  const WordCover cover =
      isop_word(word_replicate(on, vars), word_replicate(dc, vars));
  const std::vector<SmallCube> got(cover.view().begin(), cover.view().end());
  ASSERT_EQ(got, expected) << "vars " << vars << " on " << std::hex << on
                           << " dc " << dc;
  ASSERT_EQ(cover.gate_cost(), sop_gate_cost(expected));
  ASSERT_EQ(cover.function, word_replicate(sop_to_tt(expected, vars).words()[0],
                                           vars));
  ASSERT_EQ(isop(on_t, dc_t), expected);
}

TEST(WordIsop, MatchesReferenceOnEveryFourVariableFunction) {
  for (std::uint64_t f = 0; f < (1u << 16); ++f) {
    expect_word_isop_matches(f, 0, 4);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(WordIsop, MatchesReferenceOnRandomIncompleteFunctions) {
  core::Rng rng(2024);
  // 100k five- and six-variable (on, dc) pairs, then 4k over 1-4
  // variables; all but the six-variable ones reach the kernel replicated.
  for (int trial = 0; trial < 104000; ++trial) {
    const int vars = trial < 100000 ? 5 + trial % 2 : 1 + trial % 4;
    const std::uint64_t on = rng.next();
    // Don't-care density cycles through none, 1/8, 1/4 and 1/2.
    std::uint64_t dc = 0;
    switch (trial % 4) {
      case 1: dc = rng.next() & rng.next() & rng.next(); break;
      case 2: dc = rng.next() & rng.next(); break;
      case 3: dc = rng.next(); break;
      default: break;
    }
    expect_word_isop_matches(on, dc & ~on, vars);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(WordIsop, GenericPathMatchesReferenceAboveSixVariables) {
  core::Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const int vars = 7 + trial % 3;
    const TruthTable on = random_tt(vars, rng);
    const TruthTable dc = trial % 2 ? random_tt(vars, rng) & ~on
                                    : TruthTable::constant(vars, false);
    EXPECT_EQ(isop(on, dc), reference_isop(on, dc)) << "vars " << vars;
  }
}

TEST(WordIsop, CoverStaysWithinSixtyFourCubes) {
  // Parity is the worst case for cube count: 32 cubes of 6 literals.
  std::uint64_t parity = 0;
  for (int m = 0; m < 64; ++m) {
    parity |= static_cast<std::uint64_t>(std::popcount(
                  static_cast<unsigned>(m)) & 1) << m;
  }
  const WordCover cover = isop_word(parity);
  EXPECT_EQ(cover.num_cubes, 32);
  EXPECT_EQ(cover.gate_cost(), 32 * 5 + 31);
}

// Brute force: bit m of the result is bit `sub` of `word`, where `sub`
// gathers the bits of m at the placement's positions.
std::uint64_t reference_stretch(std::uint64_t word, std::uint32_t placement) {
  std::uint64_t out = 0;
  for (int m = 0; m < 64; ++m) {
    int sub = 0;
    int i = 0;
    for (int pos = 0; pos < kWordVars; ++pos) {
      if ((placement >> pos) & 1) {
        sub |= ((m >> pos) & 1) << i++;
      }
    }
    out |= ((word >> sub) & 1) << m;
  }
  return out;
}

TEST(WordStretch, MatchesMintermExpansionForEveryPlacement) {
  core::Rng rng(99);
  for (std::uint32_t placement = 0; placement < 64; ++placement) {
    const int k = std::popcount(placement);
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t word = word_replicate(rng.next(), k);
      ASSERT_EQ(word_stretch(word, placement),
                reference_stretch(word, placement))
          << "placement " << placement << " word " << std::hex << word;
    }
    for (int v = 0; v < k; ++v) {
      ASSERT_EQ(word_stretch(kWordVarMask[v], placement),
                reference_stretch(kWordVarMask[v], placement))
          << "placement " << placement << " projection " << v;
    }
  }
}

TEST(WordTables, ReplicateAndFromWordAgreeWithTruthTables) {
  core::Rng rng(5);
  for (int vars = 0; vars <= 8; ++vars) {
    const std::uint64_t bits = rng.next();
    const TruthTable t = TruthTable::from_word(vars, bits);
    for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
      ASSERT_EQ(t.get(m), ((bits >> (m & 63)) & 1) == 1);
    }
    if (vars <= kWordVars) {
      const std::uint64_t word = word_replicate(bits, vars);
      for (int m = 0; m < 64; ++m) {
        ASSERT_EQ((word >> m) & 1, (bits >> (m % (1 << vars))) & 1);
      }
    }
  }
}

}  // namespace
}  // namespace lsml::tt
