// Tests of the benchmark itself: every workload's tiny configuration runs
// clean in seconds, the metric names match BENCHMARK.json, and the output
// checks catch a flipped eval output and a flipped cec verdict.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "aig/aig.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "data/dataset.hpp"
#include "learn/learner.hpp"
#include "sat/cec.hpp"
#include "server/json.hpp"

namespace lsmlbench {
namespace {

using lsml::server::Json;

Args tiny(const std::string& workload, bool trace) {
  Args a;
  a.workload = workload;
  a.seed = 7;
  a.seconds = 1.0;
  a.trace = trace;
  a.size = "tiny";
  a.work_dir = (std::filesystem::temp_directory_path() /
                ("lsmlbench-test-" + std::to_string(::getpid())))
                   .string();
  return a;
}

void expect_clean(const Report& r, bool trace) {
  EXPECT_TRUE(r.correct()) << (r.check_failures.empty()
                                   ? ""
                                   : r.check_failures.front());
  EXPECT_GT(r.attempted(), 0);
  EXPECT_EQ(r.failed(), 0);
  for (const MetricSpec& m : kEndToEnd) {
    ASSERT_TRUE(r.e2e.count(m.name) == 1 || trace) << m.name;
    if (!trace) {
      EXPECT_GT(r.e2e.at(m.name), 0.0) << r.workload << " " << m.name;
    }
  }
}

TEST(Workloads, ContestTinyRunsClean) {
  expect_clean(run_contest(tiny("contest", false)), false);
}

TEST(Workloads, SynthCecTinyRunsClean) {
  expect_clean(run_synth_cec(tiny("synth_cec", false)), false);
}

TEST(Workloads, ServeTinyRunsClean) {
  expect_clean(run_serve(tiny("serve", false)), false);
}

TEST(Workloads, TracedRunFillsSpanTable) {
  const Report r = run_synth_cec(tiny("synth_cec", true));
  EXPECT_TRUE(r.correct());
  EXPECT_FALSE(r.span_table.empty());
  EXPECT_GT(r.layer.at("trace.busy_s"), 0.0);
  EXPECT_GT(r.layer.at("sat.solves"), 0.0);
}

TEST(Spec, MetricNamesMatchBenchmarkJson) {
  const Json spec = Json::parse(read_file(LSMLBENCH_SPEC));
  const auto names = [](const Json& list) {
    std::vector<std::pair<std::string, std::string>> out;
    for (std::size_t i = 0; i < list.size(); ++i) {
      out.emplace_back(list.at(i).at("name").as_string(),
                       list.at(i).at("unit").as_string());
    }
    return out;
  };
  const auto ours = [](const std::vector<MetricSpec>& list) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const MetricSpec& m : list) {
      out.emplace_back(m.name, m.unit);
    }
    return out;
  };
  EXPECT_EQ(names(spec.at("end_to_end")), ours(kEndToEnd));
  EXPECT_EQ(names(spec.at("per_layer")), ours(kPerLayer));
  std::set<std::string> workloads;
  for (std::size_t i = 0; i < spec.at("workloads").size(); ++i) {
    workloads.insert(spec.at("workloads").at(i).at("name").as_string());
  }
  // contest runs by hand only; see README.md.
  EXPECT_EQ(workloads, (std::set<std::string>{"synth_cec", "serve"}));
  const std::string serve_why =
      spec.at("workloads").at(1).at("why").as_string();
  EXPECT_NE(serve_why.find("limit " + std::to_string(static_cast<int>(
                                          kLatencyLimitMs)) + " ms"),
            std::string::npos);
}

// A 3-input majority circuit and its training set (all 8 minterms).
struct Majority {
  lsml::aig::Aig g{3};
  lsml::data::Dataset rows{3, 8};
  Majority() {
    g.add_output(g.maj3(g.pi(0), g.pi(1), g.pi(2)));
    for (std::size_t r = 0; r < 8; ++r) {
      int ones = 0;
      for (std::size_t c = 0; c < 3; ++c) {
        rows.set_input(r, c, ((r >> c) & 1) != 0);
        ones += static_cast<int>((r >> c) & 1);
      }
      rows.set_label(r, ones >= 2);
    }
  }
  std::string outputs() const {
    const auto sim = g.simulate(rows.column_ptrs());
    std::string s;
    for (std::size_t r = 0; r < 8; ++r) {
      s += sim[0].get(r) ? '1' : '0';
    }
    return s;
  }
};

TEST(Checks, EvalCheckCatchesAFlippedOutput) {
  const Majority m;
  std::string out = m.outputs();
  EXPECT_EQ(check_eval_accuracy(out, m.rows, 1.0), "");
  out[5] = out[5] == '1' ? '0' : '1';
  EXPECT_NE(check_eval_accuracy(out, m.rows, 1.0), "");
}

TEST(Checks, CecCheckCatchesAFlippedVerdict) {
  const Majority m;
  lsml::aig::Aig other = m.g;
  other.set_output(0, lsml::aig::lit_not(other.output(0)));
  const lsml::sat::CecResult same = lsml::sat::cec(m.g, m.g);
  const lsml::sat::CecResult diff = lsml::sat::cec(m.g, other);
  ASSERT_EQ(same.status, lsml::sat::CecStatus::kEquivalent);
  ASSERT_EQ(diff.status, lsml::sat::CecStatus::kNotEquivalent);
  EXPECT_EQ(check_cec(true, same.status, {}, 0, m.g, m.g), "");
  EXPECT_EQ(check_cec(false, diff.status, diff.counterexample,
                      diff.failing_output, m.g, other),
            "");
  // Flipped verdicts contradict the known answers.
  EXPECT_NE(check_cec(true, lsml::sat::CecStatus::kNotEquivalent,
                      diff.counterexample, 0, m.g, m.g),
            "");
  EXPECT_NE(check_cec(false, lsml::sat::CecStatus::kEquivalent, {}, 0, m.g,
                      other),
            "");
  // A counterexample on which both circuits agree does not replay.
  EXPECT_NE(check_cec(false, diff.status, diff.counterexample,
                      diff.failing_output, m.g, m.g),
            "");
}

TEST(Checks, ArtifactCheckCatchesCapAndAccuracy) {
  const Majority m;
  EXPECT_EQ(check_artifact(m.g, 5000, m.rows, 1.0), "");
  EXPECT_NE(check_artifact(m.g, 2, m.rows, 1.0), "");
  EXPECT_NE(check_artifact(m.g, 5000, m.rows, 0.875), "");
}

TEST(Stats, QuantilesAndTailLevel) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(tail_level(100), 0.9);
  EXPECT_DOUBLE_EQ(tail_level(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail_level(40), 0.75);
  EXPECT_DOUBLE_EQ(tail_level(5), 0.5);
}

TEST(Stats, ReferenceUnitTakesCpuOnOneAndManyThreads) {
  const double one = reference_unit_ms(4);
  const double many = reference_unit_ms(4, 3);
  EXPECT_GT(one, 0.0);
  EXPECT_GT(many, 0.0);
  // The same fixed work: a tenfold gap would mean a thread skipped it.
  EXPECT_LT(std::max(one, many) / std::min(one, many), 10.0);
}

}  // namespace
}  // namespace lsmlbench
