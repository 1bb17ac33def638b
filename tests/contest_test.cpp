// Contest tests: serial == parallel runs through the contest engine
// (suite::run_contest_on, in memory), aggregates, Pareto, win rates,
// leaderboard.

#include <gtest/gtest.h>

#include "learn/dt.hpp"
#include "portfolio/contest.hpp"
#include "suite/runner.hpp"

namespace lsml::portfolio {
namespace {

portfolio::BenchmarkResult make_result(int id, std::string bench,
                                       std::string method, double train_acc,
                                       double valid_acc, double test_acc,
                                       std::uint32_t num_ands,
                                       std::uint32_t num_levels) {
  BenchmarkResult r;
  r.benchmark_id = id;
  r.benchmark = std::move(bench);
  r.method = std::move(method);
  r.train_acc = train_acc;
  r.valid_acc = valid_acc;
  r.test_acc = test_acc;
  r.num_ands = num_ands;
  r.num_levels = num_levels;
  return r;
}

/// The engine as a pure in-memory contest: no result cache, no artifacts.
suite::RunnerOptions in_memory(std::uint64_t seed, int num_threads) {
  suite::RunnerOptions options;
  options.cache_dir.clear();
  options.write_artifacts = false;
  options.seed = seed;
  options.num_threads = num_threads;
  return options;
}

std::vector<oracle::Benchmark> tiny_suite() {
  oracle::SuiteOptions options;
  options.rows_per_split = 200;
  std::vector<oracle::Benchmark> suite;
  suite.push_back(oracle::make_benchmark(30, options));  // comparator
  suite.push_back(oracle::make_benchmark(75, options));  // symmetric
  return suite;
}

TEST(Contest, RunSuiteProducesPerBenchmarkResults) {
  const auto suite = tiny_suite();
  learn::DtOptions dt;
  dt.max_depth = 8;
  learn::DtLearner learner(dt, "dt8");
  const TeamRun run = run_suite(learner, 42, suite, 1);
  EXPECT_EQ(run.team, 42);
  ASSERT_EQ(run.results.size(), 2u);
  EXPECT_EQ(run.results[0].benchmark, "ex30");
  EXPECT_GT(run.results[0].test_acc, 0.6);
  EXPECT_GT(run.avg_test_acc(), 0.5);
  EXPECT_GE(run.avg_ands(), 0.0);
}

TEST(Contest, SerialAndParallelRunsAreBitIdentical) {
  const auto suite = tiny_suite();
  const auto factory = learn::LearnerFactory::from_registry("dt8");

  learn::DtOptions dt;
  dt.max_depth = 8;
  learn::DtLearner learner(dt, "dt8");
  const TeamRun serial = run_suite(learner, 42, suite, 1);

  const TeamRun threaded =
      suite::run_contest_on({{42, factory}}, suite, in_memory(1, 8))
          .runs.front();

  ASSERT_EQ(serial.results.size(), threaded.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    const auto& s = serial.results[i];
    const auto& p = threaded.results[i];
    EXPECT_EQ(s.benchmark_id, p.benchmark_id);
    EXPECT_EQ(s.method, p.method);
    EXPECT_EQ(s.train_acc, p.train_acc);
    EXPECT_EQ(s.valid_acc, p.valid_acc);
    EXPECT_EQ(s.test_acc, p.test_acc);
    EXPECT_EQ(s.num_ands, p.num_ands);
    EXPECT_EQ(s.num_levels, p.num_levels);
  }
}

TEST(Contest, RunContestMatchesPerTeamSerialRuns) {
  const auto suite = tiny_suite();
  const auto factory = learn::LearnerFactory::from_registry("dt8");

  const suite::RunnerReport report = suite::run_contest_on(
      {{1, factory}, {2, factory}}, suite, in_memory(7, 4));
  const std::vector<TeamRun>& runs = report.runs;
  const ContestStats& stats = report.stats;
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(stats.tasks_completed, 4);
  EXPECT_GT(stats.elapsed_ms, 0.0);
  EXPECT_FALSE(stats.budget_exceeded);

  for (const auto& run : runs) {
    auto learner = factory.make();
    const TeamRun serial = run_suite(*learner, run.team, suite, 7);
    ASSERT_EQ(serial.results.size(), run.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
      EXPECT_EQ(serial.results[i].test_acc, run.results[i].test_acc);
      EXPECT_EQ(serial.results[i].num_ands, run.results[i].num_ands);
    }
  }
  // Both teams cover the same suite in the same order...
  EXPECT_EQ(runs[0].results[0].benchmark, runs[1].results[0].benchmark);
  // ...but draw different RNG streams: split() must key on the team number.
  core::Rng root(7);
  EXPECT_NE(root.split(1, suite[0].id).next(),
            root.split(2, suite[0].id).next());
}

TEST(Contest, TimeBudgetIsReportedConsistently) {
  const auto suite = tiny_suite();
  const auto factory = learn::LearnerFactory::from_registry("dt8");
  suite::RunnerOptions options = in_memory(1, 2);
  options.time_budget_ms = 1;  // tight enough that real runs usually blow it
  const suite::RunnerReport report =
      suite::run_contest_on({{3, factory}}, suite, options);
  const ContestStats& stats = report.stats;
  EXPECT_EQ(report.runs.front().results.size(), suite.size())
      << "all tasks still run";
  // The flag is defined by the contract, not by how fast this machine is.
  EXPECT_EQ(stats.budget_exceeded,
            stats.elapsed_ms > static_cast<double>(options.time_budget_ms));

  const suite::RunnerReport unlimited =
      suite::run_contest_on({{3, factory}}, suite, in_memory(1, 2));
  EXPECT_FALSE(unlimited.stats.budget_exceeded) << "0 means no budget";
}

TEST(Contest, OverfitIsValidMinusTest) {
  TeamRun run;
  run.results.push_back(
      make_result(0, "a", "m", 1.0, 0.9, 0.8, 10, 3));
  run.results.push_back(
      make_result(1, "b", "m", 1.0, 0.7, 0.7, 20, 4));
  EXPECT_NEAR(run.overfit(), 0.05, 1e-12);
  EXPECT_NEAR(run.avg_ands(), 15.0, 1e-12);
}

TEST(Contest, ParetoIsMonotoneInBudget) {
  // Two synthetic teams: cheap/weak and expensive/strong.
  TeamRun cheap;
  cheap.team = 1;
  TeamRun strong;
  strong.team = 2;
  for (int b = 0; b < 5; ++b) {
    cheap.results.push_back(
        make_result(b, "ex", "m", 0, 0, 0.7, 50, 5));
    strong.results.push_back(
        make_result(b, "ex", "m", 0, 0, 0.95, 2000, 9));
  }
  const auto points =
      virtual_best_pareto({cheap, strong}, {100.0, 5000.0});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_NEAR(points[0].avg_test_acc, 0.7, 1e-12);
  EXPECT_NEAR(points[1].avg_test_acc, 0.95, 1e-12);
  EXPECT_LE(points[0].avg_test_acc, points[1].avg_test_acc)
      << "a larger budget can only help the virtual best";
}

TEST(Contest, MaxAccuracyPerBenchmark) {
  TeamRun a;
  a.results.push_back(make_result(0, "x", "m", 0, 0, 0.6, 1, 1));
  a.results.push_back(make_result(1, "y", "m", 0, 0, 0.9, 1, 1));
  TeamRun b;
  b.results.push_back(make_result(0, "x", "m", 0, 0, 0.8, 1, 1));
  b.results.push_back(make_result(1, "y", "m", 0, 0, 0.5, 1, 1));
  const auto best = max_accuracy_per_benchmark({a, b});
  EXPECT_EQ(best, (std::vector<double>{0.8, 0.9}));
}

TEST(Contest, WinRatesCountBestAndNearBest) {
  TeamRun a;
  a.team = 1;
  a.results.push_back(make_result(0, "x", "m", 0, 0, 0.90, 1, 1));
  TeamRun b;
  b.team = 2;
  b.results.push_back(make_result(0, "x", "m", 0, 0, 0.895, 1, 1));
  TeamRun c;
  c.team = 3;
  c.results.push_back(make_result(0, "x", "m", 0, 0, 0.5, 1, 1));
  const auto rates = win_rates({a, b, c});
  EXPECT_EQ(rates[0].best, 1);
  EXPECT_EQ(rates[1].best, 0);
  EXPECT_EQ(rates[1].within_top1pct, 1);
  EXPECT_EQ(rates[2].within_top1pct, 0);
}

TEST(Contest, LeaderboardSortsByAccuracy) {
  TeamRun a;
  a.team = 1;
  a.results.push_back(make_result(0, "x", "m", 0, 0.8, 0.6, 10, 2));
  TeamRun b;
  b.team = 2;
  b.results.push_back(make_result(0, "x", "m", 0, 0.9, 0.9, 30, 3));
  const std::string table = format_leaderboard({a, b});
  const auto pos2 = table.find("  2 ");
  const auto pos1 = table.find("  1 ");
  ASSERT_NE(pos1, std::string::npos);
  ASSERT_NE(pos2, std::string::npos);
  EXPECT_LT(pos2, pos1) << "team 2 has higher accuracy, should be first";
}

}  // namespace
}  // namespace lsml::portfolio
