// Unit and property tests for core::BitVec and core::Rng.

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <vector>

#include "core/bits.hpp"
#include "core/config.hpp"

namespace lsml::core {
namespace {

TEST(BitVec, SetAndGet) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_FALSE(v.get(0));
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.count(), 3u);
  v.set(64, false);
  EXPECT_EQ(v.count(), 2u);
}

TEST(BitVec, FillKeepsTailInvariant) {
  BitVec v(70, true);
  EXPECT_EQ(v.count(), 70u);
  v.flip();
  EXPECT_EQ(v.count(), 0u);
  v.flip();
  EXPECT_EQ(v.count(), 70u);
}

TEST(BitVec, LogicOps) {
  BitVec a(100);
  BitVec b(100);
  a.set(3, true);
  a.set(70, true);
  b.set(70, true);
  b.set(99, true);
  EXPECT_EQ((a & b).count(), 1u);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a ^ b).count(), 2u);
  EXPECT_EQ((~a).count(), 98u);
}

TEST(BitVec, CountHelpers) {
  Rng rng(7);
  BitVec a(257);
  BitVec b(257);
  BitVec c(257);
  a.randomize(rng);
  b.randomize(rng);
  c.randomize(rng);
  EXPECT_EQ(a.count_and(b), (a & b).count());
  EXPECT_EQ(a.count_andnot(b), (a & ~b).count());
  EXPECT_EQ(a.count_and2(b, c), (a & b & c).count());
  EXPECT_EQ(a.count_and_andnot(b, c), (a & b & ~c).count());
  EXPECT_EQ(a.count_equal(b), 257u - (a ^ b).count());
}

bool tail_clean(const BitVec& v) {
  const std::size_t rem = v.size() & 63;
  return rem == 0 || v.num_words() == 0 ||
         (v.word(v.num_words() - 1) & ~((1ULL << rem) - 1)) == 0;
}

// The tail-zero invariant is the contract word-level code (SimEngine,
// fraig signatures, popcount reductions) relies on: no operation may
// leave a set bit past size() in the last word.
TEST(BitVec, WordLevelOpsNeverLeakPastSize) {
  Rng rng(31);
  for (int round = 0; round < 200; ++round) {
    const auto n = static_cast<std::size_t>(1 + rng.below(300));
    BitVec a(n);
    BitVec b(n);
    a.randomize(rng);
    b.randomize(rng, 0.3);
    EXPECT_TRUE(tail_clean(a));
    EXPECT_TRUE(tail_clean(b));
    switch (rng.below(8)) {
      case 0: a &= b; break;
      case 1: a |= b; break;
      case 2: a ^= b; break;
      case 3: a.flip(); break;
      case 4: a.fill(true); break;
      case 5: a = ~b; break;
      case 6: a.set(rng.below(n), true); break;
      default: a = a | (b ^ a); break;
    }
    EXPECT_TRUE(tail_clean(a)) << "op leaked past size() at n=" << n;
    // popcount reductions agree with a bit-by-bit count, i.e. no
    // phantom bits participate.
    std::size_t expect = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expect += a.get(i) ? 1 : 0;
    }
    EXPECT_EQ(a.count(), expect);
  }
}

// mask_tail() is the public repair step for raw words() writers.
TEST(BitVec, MaskTailRestoresInvariantAfterRawWrite) {
  BitVec v(70);
  v.words()[1] = ~0ULL;  // a word-level writer scribbled past size()
  EXPECT_NE(v.count(), 6u);
  v.mask_tail();
  EXPECT_EQ(v.count(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(v.get(64 + i));
  }
  // No-ops on word-aligned sizes and empty vectors.
  BitVec aligned(128, true);
  aligned.mask_tail();
  EXPECT_EQ(aligned.count(), 128u);
  BitVec empty;
  empty.mask_tail();
  EXPECT_EQ(empty.size(), 0u);
}

// Frozen copy of the per-bit row parser pack_rows_into_columns replaced in
// the serve eval path: one BitVec::set per character, on zeroed columns.
// Returns the first bad row (a null view marks a non-string) instead of
// throwing.
std::size_t reference_pack(const std::vector<std::string_view>& rows,
                           std::size_t num_pis, std::size_t offset,
                           std::vector<BitVec>* columns) {
  for (std::size_t row = 0; row < rows.size(); ++row) {
    if (rows[row].data() == nullptr || rows[row].size() != num_pis) {
      return row;
    }
    const std::string_view bits = rows[row];
    for (std::size_t col = 0; col < num_pis; ++col) {
      if (bits[col] == '1') {
        (*columns)[col].set(offset + row, true);
      } else if (bits[col] != '0') {
        return row;
      }
    }
  }
  return rows.size();
}

/// Rows held in exact-size heap buffers, so the sanitized build catches a
/// load past the end of any row.
struct RowSet {
  std::vector<std::vector<char>> buffers;
  std::vector<std::string_view> views;

  RowSet(std::size_t num_rows, std::size_t width, Rng& rng) {
    buffers.reserve(num_rows);
    for (std::size_t r = 0; r < num_rows; ++r) {
      std::vector<char>& row = buffers.emplace_back(width);
      for (char& c : row) {
        c = rng.flip(0.5) ? '1' : '0';
      }
    }
    refresh();
  }
  void refresh() {
    views.clear();
    for (const auto& row : buffers) {
      views.emplace_back(row.data(), row.size());
    }
  }
};

TEST(PackRows, MatchesFrozenPerBitParser) {
  Rng rng(11);
  for (const std::size_t width : {1, 7, 8, 9, 63, 64, 65, 100, 130}) {
    for (const std::size_t num_rows : {1, 63, 64, 65, 200, 4096}) {
      for (const std::size_t offset : {0, 1, 63, 64, 100}) {
        RowSet rows(num_rows, width, rng);
        // Columns end exactly at the last row half the time.
        const std::size_t size = offset + num_rows + (rng.flip(0.5) ? 0 : 3);
        std::vector<BitVec> expect(width, BitVec(size));
        ASSERT_EQ(reference_pack(rows.views, width, offset, &expect),
                  num_rows);
        std::vector<BitVec> got(width, BitVec(size));
        ASSERT_EQ(pack_rows_into_columns(rows.views, offset, got), num_rows);
        // Bits outside the rows' range keep their value.
        std::vector<BitVec> over(width, BitVec(size, true));
        ASSERT_EQ(pack_rows_into_columns(rows.views, offset, over), num_rows);
        for (std::size_t c = 0; c < width; ++c) {
          ASSERT_EQ(got[c], expect[c]) << "width " << width << " rows "
                                       << num_rows << " offset " << offset
                                       << " column " << c;
          ASSERT_TRUE(tail_clean(got[c]));
          ASSERT_TRUE(tail_clean(over[c]));
          for (std::size_t i = 0; i < size; ++i) {
            const bool in_range = i >= offset && i < offset + num_rows;
            ASSERT_EQ(over[c].get(i), in_range ? expect[c].get(i) : true)
                << "width " << width << " offset " << offset << " bit " << i;
          }
        }
      }
    }
  }
}

TEST(PackRows, FirstBadRowMatchesFrozenPerBitParser) {
  Rng rng(12);
  for (const std::size_t width : {1, 7, 8, 9, 63, 64, 65, 100, 130}) {
    for (const std::size_t num_rows : {1, 63, 64, 65, 200}) {
      for (int trial = 0; trial < 20; ++trial) {
        RowSet rows(num_rows, width, rng);
        // One to three bad rows of random kinds at random places.
        const int num_bad = 1 + static_cast<int>(rng.below(3));
        for (int b = 0; b < num_bad; ++b) {
          std::vector<char>& row = rows.buffers[rng.below(num_rows)];
          switch (rng.below(4)) {
            case 0:
              row.push_back('0');  // one character too many
              break;
            case 1:
              if (!row.empty()) {
                row.pop_back();  // one too few
              }
              break;
            case 2:
              row.clear();
              row.shrink_to_fit();  // data() may turn null
              break;
            default:
              // Any byte but '0'/'1', at any column.
              if (!row.empty()) {
                const auto value = static_cast<int>(rng.below(254));
                row[rng.below(row.size())] =
                    static_cast<char>(value >= '0' ? value + 2 : value);
              }
          }
        }
        rows.refresh();
        if (rng.flip(0.3)) {
          rows.views[rng.below(num_rows)] = std::string_view();  // no string
        }
        const std::size_t offset = rng.below(130);
        std::vector<BitVec> expect(width, BitVec(offset + num_rows));
        std::vector<BitVec> got(width, BitVec(offset + num_rows));
        ASSERT_EQ(pack_rows_into_columns(rows.views, offset, got),
                  reference_pack(rows.views, width, offset, &expect))
            << "width " << width << " rows " << num_rows;
        for (const BitVec& column : got) {
          ASSERT_TRUE(tail_clean(column));
        }
      }
    }
  }
}

TEST(PackRows, ZeroWidthRowsOnlyValidate) {
  const std::vector<std::string_view> empty_rows(70, std::string_view(""));
  std::vector<BitVec> none;
  EXPECT_EQ(pack_rows_into_columns(empty_rows, 0, none), 70u);
  std::vector<std::string_view> with_bad = empty_rows;
  with_bad[66] = "0";
  with_bad[67] = std::string_view();
  EXPECT_EQ(pack_rows_into_columns(with_bad, 0, none), 66u);
  EXPECT_EQ(pack_rows_into_columns({}, 5, none), 0u);
}

TEST(BitVec, HashDistinguishes) {
  BitVec a(64);
  BitVec b(64);
  b.set(5, true);
  EXPECT_NE(a.hash(), b.hash());
  b.set(5, false);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(3);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) {
    ones += rng.flip(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(ones / 10000.0, 0.3, 0.03);
}

TEST(ScaleConfig, EnvParsingDefaults) {
  const ScaleConfig fast = make_scale(Scale::kFast);
  const ScaleConfig full = make_scale(Scale::kFull);
  const ScaleConfig smoke = make_scale(Scale::kSmoke);
  EXPECT_EQ(full.train_rows, 6400u);  // the paper's protocol
  EXPECT_LT(fast.train_rows, full.train_rows);
  EXPECT_LT(smoke.num_benchmarks, fast.num_benchmarks);
  EXPECT_EQ(fast.name(), "fast");
}

class BitVecRandomized : public ::testing::TestWithParam<int> {};

TEST_P(BitVecRandomized, RandomizeHitsRequestedDensity) {
  Rng rng(GetParam());
  BitVec v(20000);
  const double p = 0.1 * (1 + GetParam() % 9);
  v.randomize(rng, p);
  EXPECT_NEAR(static_cast<double>(v.count()) / 20000.0, p, 0.03);
}

TEST_P(BitVecRandomized, DoubleFlipIsIdentity) {
  Rng rng(GetParam());
  BitVec v(777);
  v.randomize(rng);
  BitVec w = v;
  w.flip();
  w.flip();
  EXPECT_EQ(v, w);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVecRandomized, ::testing::Range(1, 10));

}  // namespace
}  // namespace lsml::core
