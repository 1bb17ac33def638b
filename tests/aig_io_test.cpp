// ASCII AIGER round-trip tests.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "aig/aig_io.hpp"
#include "aig/aig_random.hpp"
#include "core/rng.hpp"

namespace lsml::aig {
namespace {

TEST(AigIo, WritesHeaderAndBody) {
  Aig g(2);
  g.add_output(g.and2(g.pi(0), lit_not(g.pi(1))));
  std::ostringstream os;
  write_aag(g, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("aag 3 2 0 1 1"), std::string::npos);
  EXPECT_NE(text.find("6 2 5"), std::string::npos);
}

TEST(AigIo, RoundTripPreservesFunction) {
  core::Rng rng(3);
  ConeOptions options;
  options.num_inputs = 8;
  options.num_ands = 60;
  const Aig original = random_cone(options, rng);

  std::stringstream ss;
  write_aag(original, ss);
  const Aig parsed = read_aag(ss);
  ASSERT_EQ(parsed.num_pis(), original.num_pis());
  ASSERT_EQ(parsed.num_outputs(), original.num_outputs());
  for (int trial = 0; trial < 256; ++trial) {
    std::vector<std::uint8_t> row(8);
    for (auto& bit : row) {
      bit = rng.flip(0.5) ? 1 : 0;
    }
    EXPECT_EQ(original.eval_row(row)[0], parsed.eval_row(row)[0]);
  }
}

TEST(AigIo, EmptyAigRoundTrip) {
  const Aig g(0);  // only the constant node: no PIs, ANDs, or outputs
  std::stringstream ss;
  write_aag(g, ss);
  EXPECT_NE(ss.str().find("aag 0 0 0 0 0"), std::string::npos);
  const Aig parsed = read_aag(ss);
  EXPECT_EQ(parsed.num_pis(), 0u);
  EXPECT_EQ(parsed.num_ands(), 0u);
  EXPECT_EQ(parsed.num_outputs(), 0u);
  std::ostringstream again;
  write_aag(parsed, again);
  EXPECT_EQ(again.str(), ss.str());
}

TEST(AigIo, MovedFromAigWritesParseableModule) {
  Aig g(2);
  g.add_output(g.and2(g.pi(0), g.pi(1)));
  const Aig stolen = std::move(g);
  EXPECT_EQ(stolen.num_pis(), 2u);
  // g now has zero nodes; the writer must not underflow its counts.
  std::stringstream ss;
  write_aag(g, ss);  // NOLINT(bugprone-use-after-move): deliberate
  EXPECT_NE(ss.str().find("aag 0 "), std::string::npos);
  EXPECT_NO_THROW(read_aag(ss));
}

TEST(AigIo, PiOnlyRoundTrip) {
  Aig g(1);
  g.add_output(g.pi(0));
  std::stringstream ss;
  write_aag(g, ss);
  const Aig parsed = read_aag(ss);
  ASSERT_EQ(parsed.num_pis(), 1u);
  EXPECT_TRUE(parsed.eval_row({1})[0]);
  EXPECT_FALSE(parsed.eval_row({0})[0]);
}

TEST(AigIo, RejectsBadHeader) {
  std::istringstream is("agg 1 1 0 1 0\n2\n2\n");
  EXPECT_THROW(read_aag(is), std::runtime_error);
}

TEST(AigIo, RejectsLatches) {
  std::istringstream is("aag 1 1 1 0 0\n2\n");
  EXPECT_THROW(read_aag(is), std::runtime_error);
}

// Malformed files are clean runtime_errors: no out-of-bounds access (the
// ASan build runs these) and no silently different circuit.
void expect_rejected(const char* text, const char* why) {
  std::istringstream is(text);
  try {
    (void)read_aag(is);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

TEST(AigIo, RejectsOutOfRangeLiterals) {
  // Input literal 4000 in a 3-variable file (was a heap write).
  expect_rejected("aag 3 2 0 1 1\n2\n4000\n6\n6 2 4\n", "input");
  // AND fanin var 4000 (was a heap read).
  expect_rejected("aag 3 2 0 1 1\n2\n4\n6\n6 2 8000\n", "out of range");
  expect_rejected("aag 3 2 0 1 1\n2\n4\n4000\n6 2 4\n", "output");
  expect_rejected("aag 3 2 0 1 1\n2\n4\n6\n4000 2 4\n", "lhs");
}

TEST(AigIo, RejectsUseBeforeDefinition) {
  // Forward reference: 6 reads 8, defined on the next line.
  expect_rejected("aag 4 2 0 1 2\n2\n4\n8\n6 8 4\n8 2 4\n", "before");
  // Self reference.
  expect_rejected("aag 3 2 0 1 1\n2\n4\n6\n6 6 4\n", "before");
}

TEST(AigIo, RejectsRedefinitions) {
  expect_rejected("aag 2 2 0 0 0\n2\n2\n", "input");      // input twice
  expect_rejected("aag 2 2 0 0 0\n0\n2\n", "input");      // the constant
  expect_rejected("aag 2 2 0 0 0\n3\n2\n", "input");      // complemented
  expect_rejected("aag 3 2 0 1 1\n2\n4\n6\n4 2 2\n", "lhs");  // a PI
  expect_rejected("aag 3 2 0 1 1\n2\n4\n6\n7 2 4\n", "lhs");  // negated
  expect_rejected("aag 4 2 0 1 2\n2\n4\n8\n6 2 4\n6 2 5\n", "lhs");
}

TEST(AigIo, RejectsOversizedHeaders) {
  // I + A wraps around 32 bits to M.
  expect_rejected("aag 0 4294967295 0 0 1\n", "non-contiguous");
  // 2M+1 would overflow a literal.
  expect_rejected("aag 4294967295 4294967295 0 0 0\n", "too many");
}

TEST(AigIo, AcceptsInputsInAnyOrder) {
  // Inputs listed as 4, 2: PI 0 is file variable 2, PI 1 is variable 1.
  std::istringstream is("aag 3 2 0 1 1\n4\n2\n6\n6 2 5\n");
  const Aig g = read_aag(is);
  ASSERT_EQ(g.num_pis(), 2u);
  // Output = var1 & !var2 = PI 1 & !PI 0.
  EXPECT_TRUE(g.eval_row({0, 1})[0]);
  EXPECT_FALSE(g.eval_row({1, 1})[0]);
  EXPECT_FALSE(g.eval_row({0, 0})[0]);
}

TEST(AigIo, ConstantOutputs) {
  Aig g(1);
  g.add_output(kLitTrue);
  g.add_output(kLitFalse);
  std::stringstream ss;
  write_aag(g, ss);
  const Aig parsed = read_aag(ss);
  const auto out = parsed.eval_row({0});
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
}

TEST(AigIo, FileRoundTrip) {
  Aig g(2);
  g.add_output(g.or2(g.pi(0), g.pi(1)));
  const std::string path = ::testing::TempDir() + "/lsml_io_test.aag";
  write_aag_file(g, path);
  const Aig parsed = read_aag_file(path);
  EXPECT_EQ(parsed.num_pis(), 2u);
  EXPECT_TRUE(parsed.eval_row({1, 0})[0]);
  EXPECT_FALSE(parsed.eval_row({0, 0})[0]);
}

}  // namespace
}  // namespace lsml::aig
