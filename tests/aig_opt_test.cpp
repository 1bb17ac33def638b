// Optimization passes: functional equivalence (the non-negotiable), size
// never grows through optimize(), and balance reduces depth of chains.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>

#include "aig/aig_build.hpp"
#include "aig/aig_io.hpp"
#include "aig/aig_opt.hpp"
#include "aig/aig_random.hpp"
#include "core/bits.hpp"
#include "core/rng.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script.hpp"

namespace lsml::aig {
namespace {

bool equivalent_by_simulation(const Aig& a, const Aig& b, std::size_t rows,
                              core::Rng& rng) {
  std::vector<core::BitVec> cols(a.num_pis(), core::BitVec(rows));
  std::vector<const core::BitVec*> ptrs;
  for (auto& c : cols) {
    c.randomize(rng);
    ptrs.push_back(&c);
  }
  const auto sa = a.simulate(ptrs);
  const auto sb = b.simulate(ptrs);
  return sa[0].count_equal(sb[0]) == rows;
}

TEST(Balance, ReducesChainDepth) {
  Aig g(8);
  // Deliberately skewed AND chain: depth 7.
  Lit acc = g.pi(0);
  for (std::uint32_t i = 1; i < 8; ++i) {
    acc = g.and2(acc, g.pi(i));
  }
  g.add_output(acc);
  EXPECT_EQ(g.num_levels(), 7u);
  const Aig balanced = balance(g);
  EXPECT_EQ(balanced.num_levels(), 3u);
  core::Rng rng(1);
  EXPECT_TRUE(equivalent_by_simulation(g, balanced, 256, rng));
}

class OptEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OptEquivalence, BalancePreservesFunction) {
  core::Rng rng(GetParam());
  ConeOptions options;
  options.num_inputs = 10;
  options.num_ands = 150;
  options.flavor = GetParam() % 2 ? ConeFlavor::kXorRich : ConeFlavor::kRandom;
  const Aig g = random_cone(options, rng);
  const Aig b = balance(g);
  core::Rng check(GetParam() * 7);
  EXPECT_TRUE(equivalent_by_simulation(g, b, 1024, check));
}

TEST_P(OptEquivalence, RewritePreservesFunction) {
  core::Rng rng(GetParam() * 13 + 1);
  ConeOptions options;
  options.num_inputs = 9;
  options.num_ands = 120;
  const Aig g = random_cone(options, rng);
  const Aig r = rewrite(g);
  core::Rng check(GetParam() * 31);
  EXPECT_TRUE(equivalent_by_simulation(g, r, 512, check))
      << "(exhaustive check below will localize)";
  // Exhaustive for 9 inputs.
  for (int m = 0; m < (1 << 9); ++m) {
    std::vector<std::uint8_t> row(9);
    for (int i = 0; i < 9; ++i) {
      row[static_cast<std::size_t>(i)] = (m >> i) & 1;
    }
    ASSERT_EQ(g.eval_row(row)[0], r.eval_row(row)[0]) << "minterm " << m;
  }
}

TEST_P(OptEquivalence, OptimizeNeverGrowsAndPreserves) {
  core::Rng rng(GetParam() * 101 + 7);
  ConeOptions options;
  options.num_inputs = 12;
  options.num_ands = 250;
  const Aig g = random_cone(options, rng);
  const Aig opt = optimize(g);
  EXPECT_LE(opt.num_ands(), g.cleanup().num_ands());
  core::Rng check(GetParam());
  EXPECT_TRUE(equivalent_by_simulation(g, opt, 2048, check));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptEquivalence, ::testing::Range(1, 13));

// Every input row of a small cone, one simulation column per input.
bool equivalent_exhaustively(const Aig& a, const Aig& b) {
  const std::size_t rows = std::size_t{1} << a.num_pis();
  std::vector<core::BitVec> cols(a.num_pis(), core::BitVec(rows));
  std::vector<const core::BitVec*> ptrs;
  for (std::uint32_t i = 0; i < a.num_pis(); ++i) {
    for (std::size_t r = 0; r < rows; ++r) {
      cols[i].set(r, (r >> i) & 1);
    }
    ptrs.push_back(&cols[i]);
  }
  return a.simulate(ptrs)[0].count_equal(b.simulate(ptrs)[0]) == rows;
}

// The word ISOP cost and the truth-table stretch drive every cut size;
// check each against exhaustive simulation, not only the default k = 4.
TEST(Rewrite, EveryCutSizePreservesFunctionExhaustively) {
  for (const auto flavor :
       {ConeFlavor::kRandom, ConeFlavor::kXorRich, ConeFlavor::kArith}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      core::Rng rng(seed * 17 + static_cast<std::uint64_t>(flavor));
      ConeOptions options;
      options.num_inputs = 11;
      options.num_ands = 160;
      options.flavor = flavor;
      const Aig g = random_cone(options, rng);
      for (int k = 2; k <= 6; ++k) {
        for (const int cuts : {1, 8}) {
          const Aig r = rewrite(g, k, cuts);
          EXPECT_TRUE(equivalent_exhaustively(g, r))
              << "flavor " << static_cast<int>(flavor) << " seed " << seed
              << " k " << k << " cuts " << cuts;
        }
      }
    }
  }
}

TEST(Rewrite, ShrinksRedundantStructure) {
  Aig g(4);
  // f = (a&b&c) | (a&b&!c): collapses to a&b.
  const Lit ab = g.and2(g.pi(0), g.pi(1));
  const Lit t1 = g.and2(ab, g.pi(2));
  const Lit t2 = g.and2(ab, lit_not(g.pi(2)));
  g.add_output(g.or2(t1, t2));
  const Aig opt = optimize(g);
  EXPECT_LE(opt.num_ands(), 1u);
  core::Rng rng(5);
  EXPECT_TRUE(equivalent_by_simulation(g, opt, 256, rng));
}

TEST(Optimize, MuxTreeOfConstantsCollapses) {
  // DT-style mux cascade whose leaves are mostly equal should shrink.
  Aig g(4);
  Lit leaf1 = kLitTrue;
  Lit leaf0 = kLitFalse;
  const Lit m0 = g.mux(g.pi(0), leaf1, leaf0);
  const Lit m1 = g.mux(g.pi(1), m0, m0);  // redundant select
  g.add_output(m1);
  const Aig opt = optimize(g);
  EXPECT_LE(opt.num_ands(), g.cleanup().num_ands());
  core::Rng rng(8);
  EXPECT_TRUE(equivalent_by_simulation(g, opt, 64, rng));
}

TEST(RandomCone, MeetsBalanceWindowMostOfTheTime) {
  core::Rng rng(77);
  ConeOptions options;
  options.num_inputs = 24;
  options.num_ands = 240;
  const Aig g = random_cone(options, rng);
  core::Rng probe(78);
  const double onset = onset_fraction(g, 4096, probe);
  EXPECT_GT(onset, 0.2);
  EXPECT_LT(onset, 0.8);
  EXPECT_GT(g.num_ands(), 50u);
}

// ------------------------------------------------------- rewrite goldens
// Rewrite output is a byte-identity contract: contest numbers, cache
// entries and the benchmark's AND counts all depend on it. These goldens
// were produced by the bit-loop cut kernel (TruthTable ISOP per cut, O(2^k
// k^2) truth-table expansion); any faster kernel must reproduce them
// exactly. A mismatch prints the new row so a deliberate change can be
// re-pinned.

// Frozen cone per flavor: editing this invalidates every golden below.
Aig golden_cone(ConeFlavor flavor) {
  core::Rng rng(1000 + static_cast<std::uint64_t>(flavor));
  ConeOptions options;
  options.num_inputs = 14;
  options.num_ands = 320;
  options.flavor = flavor;
  return random_cone(options, rng);
}

std::uint64_t aag_hash(const Aig& g) {
  std::ostringstream os;
  write_aag(g, os);
  const std::string text = os.str();
  return core::fnv1a(text.data(), text.size());
}

struct RewriteGolden {
  ConeFlavor flavor;
  int cut_size;
  int cuts_per_node;
  std::uint64_t content_hash;
  std::uint64_t aag_hash;
};

constexpr RewriteGolden kRewriteGoldens[] = {
    {ConeFlavor::kRandom, 2, 1, 0x3c73e9837bde9a52ULL, 0x863b53a2956c187aULL},
    {ConeFlavor::kRandom, 2, 8, 0x3c73e9837bde9a52ULL, 0x863b53a2956c187aULL},
    {ConeFlavor::kRandom, 3, 1, 0xa223548c8cf1a3baULL, 0x99cb706cc67fc7b4ULL},
    {ConeFlavor::kRandom, 3, 8, 0x66fbf2b71cf8b7b2ULL, 0xf4434226c756209eULL},
    {ConeFlavor::kRandom, 4, 1, 0x8576bdd842efed39ULL, 0x7c7dc1e06537ccc1ULL},
    {ConeFlavor::kRandom, 4, 8, 0x66fbf2b71cf8b7b2ULL, 0xf4434226c756209eULL},
    {ConeFlavor::kRandom, 5, 1, 0x2133b220924b5923ULL, 0x12e9f4cc1fd88bffULL},
    {ConeFlavor::kRandom, 5, 8, 0x5a68aa12cfb3a7eeULL, 0x7b7e48422b1e3cc0ULL},
    {ConeFlavor::kRandom, 6, 1, 0x1c0466d5d8229524ULL, 0xb3db595bfbc49c92ULL},
    {ConeFlavor::kRandom, 6, 8, 0x041fe2126d67f6a9ULL, 0xc72da6942ba455a2ULL},
    {ConeFlavor::kXorRich, 2, 1, 0x1b4c78d7b73cf625ULL, 0x040dc48a2cbca1d4ULL},
    {ConeFlavor::kXorRich, 2, 8, 0x1b4c78d7b73cf625ULL, 0x040dc48a2cbca1d4ULL},
    {ConeFlavor::kXorRich, 3, 1, 0x6d3335deccbeee7eULL, 0xd28a768bef99a760ULL},
    {ConeFlavor::kXorRich, 3, 8, 0x74a6f11edf126445ULL, 0x0c666a3d8abbdf81ULL},
    {ConeFlavor::kXorRich, 4, 1, 0x914bacaa130bb8c6ULL, 0xffd22d8c5541ed36ULL},
    {ConeFlavor::kXorRich, 4, 8, 0xe11fa68e370997cdULL, 0x9c77058b8ab3f7adULL},
    {ConeFlavor::kXorRich, 5, 1, 0x411476ac45b2bf77ULL, 0x4e64c67978c7a2b9ULL},
    {ConeFlavor::kXorRich, 5, 8, 0x102c0567167509dcULL, 0xa9eb7e8701c0af96ULL},
    {ConeFlavor::kXorRich, 6, 1, 0x43c95c3c507f1745ULL, 0xd2856c13bdd42175ULL},
    {ConeFlavor::kXorRich, 6, 8, 0x10dc984628ffe95dULL, 0xb540e12d710caf13ULL},
    {ConeFlavor::kArith, 2, 1, 0x78ca0215267b6cdcULL, 0x054bc36ca6ad8029ULL},
    {ConeFlavor::kArith, 2, 8, 0x78ca0215267b6cdcULL, 0x054bc36ca6ad8029ULL},
    {ConeFlavor::kArith, 3, 1, 0x0338ff9bc422c845ULL, 0x4ac3d4bd4eb6549bULL},
    {ConeFlavor::kArith, 3, 8, 0x05a998c362d0312bULL, 0xa5186c800ba4ff06ULL},
    {ConeFlavor::kArith, 4, 1, 0x501be050ca45d201ULL, 0xafb2ff0ca0a0e514ULL},
    {ConeFlavor::kArith, 4, 8, 0xafbf25b47b553f8eULL, 0x0ba19e1320e66a58ULL},
    {ConeFlavor::kArith, 5, 1, 0x0468df6253dbb2a0ULL, 0xdd809953992d119dULL},
    {ConeFlavor::kArith, 5, 8, 0x768094b6afe2f1e3ULL, 0xf6fc61c16a056e07ULL},
    {ConeFlavor::kArith, 6, 1, 0x715f45f0f08c0099ULL, 0x78f8e0efdbe7a12dULL},
    {ConeFlavor::kArith, 6, 8, 0x3544fa5f5a431243ULL, 0x76f4ebf500283f88ULL},
};

static_assert(std::size(kRewriteGoldens) == 3 * 5 * 2,
              "every flavor at cut sizes 2-6 with 1 and 8 cuts per node");

TEST(RewriteGolden, OutputsArePinned) {
  for (const auto& golden : kRewriteGoldens) {
    const Aig out = rewrite(golden_cone(golden.flavor), golden.cut_size,
                            golden.cuts_per_node);
    const std::uint64_t content = out.content_hash();
    const std::uint64_t text = aag_hash(out);
    EXPECT_EQ(content, golden.content_hash)
        << "flavor " << static_cast<int>(golden.flavor) << " k "
        << golden.cut_size << " cuts " << golden.cuts_per_node;
    EXPECT_EQ(text, golden.aag_hash)
        << "flavor " << static_cast<int>(golden.flavor) << " k "
        << golden.cut_size << " cuts " << golden.cuts_per_node;
    if (content != golden.content_hash || text != golden.aag_hash) {
      std::printf("    {ConeFlavor(%d), %d, %d, 0x%016llxULL, 0x%016llxULL},\n",
                  static_cast<int>(golden.flavor), golden.cut_size,
                  golden.cuts_per_node,
                  static_cast<unsigned long long>(content),
                  static_cast<unsigned long long>(text));
    }
  }
}

struct ScriptGolden {
  ConeFlavor flavor;
  const char* preset;
  std::uint64_t content_hash;
  std::uint64_t aag_hash;
};

constexpr ScriptGolden kScriptGoldens[] = {
    {ConeFlavor::kRandom, "resyn2fs", 0x943db560f3fb081dULL, 0xb75a61c4c661ec39ULL},
    {ConeFlavor::kRandom, "compress2max", 0x60072a436d182073ULL, 0x51e1665d6bbd703fULL},
    {ConeFlavor::kXorRich, "resyn2fs", 0x3a56b7b4acb60298ULL, 0xb68f1848fbb3ec70ULL},
    {ConeFlavor::kXorRich, "compress2max", 0x9a0297b016071ed4ULL, 0x36ef245f44463397ULL},
    {ConeFlavor::kArith, "resyn2fs", 0xb2d51e949b693015ULL, 0x69b6243824c61658ULL},
    {ConeFlavor::kArith, "compress2max", 0xc049b1496f490439ULL, 0x7530618289e0aed2ULL},
};

TEST(RewriteGolden, PresetScriptsArePinned) {
  const synth::PassManager manager;
  for (const auto& golden : kScriptGoldens) {
    const Aig out = manager
                        .run(golden_cone(golden.flavor),
                             synth::Script::preset(golden.preset))
                        .circuit;
    const std::uint64_t content = out.content_hash();
    const std::uint64_t text = aag_hash(out);
    EXPECT_EQ(content, golden.content_hash)
        << "flavor " << static_cast<int>(golden.flavor) << " " << golden.preset;
    EXPECT_EQ(text, golden.aag_hash)
        << "flavor " << static_cast<int>(golden.flavor) << " " << golden.preset;
    if (content != golden.content_hash || text != golden.aag_hash) {
      std::printf("    {ConeFlavor(%d), \"%s\", 0x%016llxULL, 0x%016llxULL},\n",
                  static_cast<int>(golden.flavor), golden.preset,
                  static_cast<unsigned long long>(content),
                  static_cast<unsigned long long>(text));
    }
  }
}

}  // namespace
}  // namespace lsml::aig
