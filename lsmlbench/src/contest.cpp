// contest: `lsml run --scale smoke` with all ten teams over a seeded draw
// of generated contest benchmarks, through suite::run_suite_dir with
// nproc workers and artifacts written. Each repetition is truly cold
// (fresh result cache and script-search experience directory,
// PassManager::clear_memo()); a warm rerun over the cold run's cache
// follows it. Only contest.rerun_s is a warm phase.

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>

#include "aig/aig_io.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "core/config.hpp"
#include "core/rng.hpp"
#include "learn/factory.hpp"
#include "pla/pla.hpp"
#include "portfolio/team.hpp"
#include "suite/generate.hpp"
#include "suite/manifest.hpp"
#include "suite/runner.hpp"
#include "synth/pass_manager.hpp"

namespace lsmlbench {

namespace {

using namespace lsml;

constexpr std::uint32_t kAndCap = 5000;
/// Reference units timed before and after each cold run, on as many
/// threads as the runner's workers.
constexpr int kRefUnits = 200;

/// Wall time of every Learner::fit the contest makes (one per task).
struct FitLog {
  std::mutex mu;
  std::vector<double> ms;
  std::map<std::string, double> ms_by_team;
};

/// Forwards to a team learner and times its fit: the per-task latency.
class TimedLearner final : public learn::Learner {
 public:
  TimedLearner(std::unique_ptr<learn::Learner> inner, FitLog* log)
      : inner_(std::move(inner)), log_(log) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  learn::TrainedModel fit(const data::Dataset& train,
                          const data::Dataset& valid,
                          core::Rng& rng) override {
    const auto t0 = Clock::now();
    learn::TrainedModel m;
    {
      BenchSpan span("fit");
      m = inner_->fit(train, valid, rng);
    }
    const double ms = seconds_since(t0) * 1e3;
    const std::lock_guard<std::mutex> lock(log_->mu);
    log_->ms.push_back(ms);
    log_->ms_by_team[inner_->name()] += ms;
    return m;
  }

 private:
  std::unique_ptr<learn::Learner> inner_;
  FitLog* log_;
};

struct Config {
  std::vector<int> teams;
  std::vector<int> ids;
  std::size_t rows = 0;
};

/// The benchmark draw: one id from each of the ten Table I categories
/// (ids 10c .. 10c+9), picked by the seed, for the first `count`
/// categories in a seeded order.
std::vector<int> draw_ids(std::uint64_t seed, int count) {
  core::Rng rng(seed ^ 0xc0de5eedULL);
  std::vector<int> cats = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (std::size_t i = cats.size() - 1; i > 0; --i) {
    std::swap(cats[i], cats[rng.below(i + 1)]);
  }
  std::vector<int> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(10 * cats[static_cast<std::size_t>(i)] +
                  static_cast<int>(rng.below(10)));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Config config_for(const Args& args) {
  Config c;
  if (args.size == "tiny") {
    c.teams = {2, 9};
    c.ids = {30};
    c.rows = 100;
  } else {
    c.teams = portfolio::all_team_numbers();
    c.ids = draw_ids(args.seed, 4);
    c.rows = 300;
  }
  return c;
}

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Reference-computation CPU ms per unit, timed before and after the
  /// cold run (mean of the two).
  double unit_ms = 0.0;
  double rerun_s = 0.0;
  suite::RunnerReport report;
  std::string leaderboard;  ///< csv + json bytes of the cold run
  RegistrySnapshot delta;   ///< registry delta over cold + warm
  double pla_parse_s = 0.0;
  double warm_hit_frac = 0.0;
};

}  // namespace

Report run_contest(const Args& args) {
  Report r;
  r.workload = "contest";
  const Config cfg = config_for(args);
  const std::string root = fresh_dir(args.work_dir + "/contest");

  // Set-up: write the drawn suite to disk, three times; the median counts.
  std::vector<double> setup_s;
  const std::string suite_dir = root + "/suite";
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    fresh_dir(suite_dir);
    for (const int id : cfg.ids) {
      suite::GenerateOptions g;
      g.first = id;
      g.last = id;
      g.rows_per_split = cfg.rows;
      g.seed = args.seed;
      suite::generate_suite(suite_dir, g);
    }
    setup_s.push_back(seconds_since(t0));
  }
  std::string drawn;
  for (const int id : cfg.ids) {
    drawn += (drawn.empty() ? "" : ",") + std::to_string(id);
  }
  r.notes.push_back("benchmarks ex{" + drawn + "} x " +
                    std::to_string(cfg.rows) + " rows/split, " +
                    std::to_string(cfg.teams.size()) + " teams, smoke grids");
  r.notes.push_back("cold phases: wall/cpu/task latency (fresh cache, "
                    "cleared memo); warm phase: contest.rerun_s only");

  FitLog fits;
  portfolio::TeamOptions team_options;
  team_options.scale = core::Scale::kSmoke;
  team_options.node_budget = kAndCap;
  std::vector<portfolio::ContestEntry> entries;
  for (portfolio::ContestEntry& e :
       portfolio::contest_entries(cfg.teams, team_options)) {
    const learn::LearnerFactory inner = e.factory;
    entries.push_back(
        {e.team, learn::LearnerFactory(inner.name(), [inner, &fits] {
           return std::make_unique<TimedLearner>(inner.make(), &fits);
         })});
  }

  suite::RunnerOptions base;
  base.seed = args.seed;
  base.config_salt = static_cast<std::uint64_t>(core::Scale::kSmoke);
  base.num_threads = hardware_threads();
  base.opt.script = "fast";
  base.opt.options.max_rounds = 3;
  base.opt.options.node_budget = kAndCap;
  base.opt.search_seed = args.seed;

  const std::size_t tasks = cfg.teams.size() * cfg.ids.size();
  const auto one_rep = [&](int index) {
    Rep rep;
    const std::string dir = fresh_dir(root + "/rep" + std::to_string(index));
    suite::RunnerOptions opts = base;
    opts.cache_dir = dir + "/cache";
    opts.out_dir = dir + "/out";
    synth::PassManager::clear_memo();
    const RegistrySnapshot before = RegistrySnapshot::take();
    {
      // The runner parses the PLA files itself; this times the same parse.
      const auto t0 = Clock::now();
      for (const auto& entry : suite::discover_suite(suite_dir)) {
        (void)pla::read_pla_file(entry.train_path);
        (void)pla::read_pla_file(entry.valid_path);
        (void)pla::read_pla_file(entry.test_path);
      }
      rep.pla_parse_s = seconds_since(t0);
    }
    const double unit0 = reference_unit_ms(kRefUnits, opts.num_threads);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    rep.report = suite::run_suite_dir(suite_dir, entries, opts);
    rep.wall_s = seconds_since(t0);
    rep.cpu_s = process_cpu_s() - cpu0;
    rep.unit_ms =
        (unit0 + reference_unit_ms(kRefUnits, opts.num_threads)) / 2;
    rep.leaderboard = read_file(rep.report.leaderboard_csv_path) +
                      read_file(rep.report.leaderboard_json_path);
    // Warm reruns over the cold run's cache; the median of five counts.
    std::vector<double> warm_s;
    suite::RunnerReport warm;
    for (int w = 0; w < 5; ++w) {
      const auto t1 = Clock::now();
      warm = suite::run_suite_dir(suite_dir, entries, opts);
      warm_s.push_back(seconds_since(t1));
    }
    rep.rerun_s = median(warm_s);
    rep.warm_hit_frac = static_cast<double>(warm.cache_hits) /
                        std::max(1, warm.cache_hits + warm.cache_misses);
    rep.delta = RegistrySnapshot::take().minus(before);

    OpCount& task_ops = r.op("tasks");
    task_ops.attempted += static_cast<std::int64_t>(tasks);
    task_ops.failed +=
        static_cast<std::int64_t>(tasks) - rep.report.cache_misses;
    r.check(rep.report.cache_misses == static_cast<int>(tasks),
            "cold run served tasks from a cache");
    OpCount& rerun_ops = r.op("rerun_tasks");
    rerun_ops.attempted += static_cast<std::int64_t>(tasks);
    rerun_ops.failed += static_cast<std::int64_t>(tasks) - warm.cache_hits;
    r.check(warm.cache_hits == static_cast<int>(tasks),
            "warm rerun recomputed tasks");
    r.check(read_file(warm.leaderboard_csv_path) +
                    read_file(warm.leaderboard_json_path) ==
                rep.leaderboard,
            "warm rerun leaderboard differs from the cold run's");
    return rep;
  };

  // Untraced cold repetitions fill the window (at least one); a traced
  // run spends half of it untraced and then adds one traced repetition.
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Rep> reps;
  const auto start = Clock::now();
  do {
    reps.push_back(one_rep(static_cast<int>(reps.size())));
  } while (seconds_since(start) + reps.back().wall_s + reps.back().rerun_s <
           window);
  const std::vector<double> task_ms = fits.ms;

  for (std::size_t i = 1; i < reps.size(); ++i) {
    r.check(reps[i].leaderboard == reps[0].leaderboard,
            "leaderboard differs between cold repetitions");
  }

  // Artifact checks on the first repetition.
  const Rep& first = reps[0];
  const std::vector<oracle::Benchmark> suite = suite::load_suite(suite_dir);
  double aag_bytes = 0.0;
  double aag_s = 0.0;
  std::vector<double> accs;
  std::vector<double> ands;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const std::string key = suite::entry_key(entries[e]);
    for (std::size_t b = 0; b < suite.size(); ++b) {
      const portfolio::BenchmarkResult& res = first.report.runs[e].results[b];
      const std::string text = read_file(root + "/rep0/out/aig/" + key + "/" +
                                         suite[b].name + ".aag");
      const auto t0 = Clock::now();
      std::istringstream in(text);
      const aig::Aig circuit = aig::read_aag(in);
      aag_s += seconds_since(t0);
      aag_bytes += static_cast<double>(text.size());
      const std::string why =
          check_artifact(circuit, kAndCap, suite[b].test, res.test_acc);
      r.check(why.empty(), key + "/" + suite[b].name + ": " + why);
      accs.push_back(res.test_acc);
      ands.push_back(res.num_ands);
    }
  }

  std::vector<double> wall, cpu, rerun;
  for (const Rep& rep : reps) {
    wall.push_back(rep.wall_s);
    cpu.push_back(rep.cpu_s);
    rerun.push_back(rep.rerun_s);
  }
  const double mean_acc = mean(accs);
  const double mean_ands = mean(ands);
  const double tail_q = tail_level(task_ms.size());

  r.set("setup_s", median(setup_s), "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("contest.wall_s", median(wall), "s");
  r.set("contest.cpu_s", median(cpu), "s");
  r.set("contest.rerun_s", median(rerun), "s");
  r.set("contest.test_acc", mean_acc, "ratio");
  r.set("contest.ands", mean_ands, "count");
  r.set("contest.task_p50_ms", median(task_ms), "ms");
  r.set("contest.task_tail_ms", quantile(task_ms, tail_q), "ms");
  r.set("contest.task_tail_level", tail_q, "quantile");
  r.set("contest.repetitions", static_cast<double>(reps.size()), "count");
  r.set("contest.tasks_per_rep", static_cast<double>(tasks), "count");
  for (const auto& [team, ms] : fits.ms_by_team) {
    r.set("contest.fit_s." + team, ms / 1e3 / reps.size(), "s");
  }

  r.e2e["setup_s"] = median(setup_s);
  r.e2e["peak_rss_mb"] = peak_rss_mb();
  std::vector<double> ref_per_op;
  std::vector<double> unit_ms;
  for (const Rep& rep : reps) {
    ref_per_op.push_back(rep.cpu_s * 1e3 / static_cast<double>(tasks) /
                         rep.unit_ms);
    unit_ms.push_back(rep.unit_ms);
  }
  r.set("reference_unit_ms", median(unit_ms), "ms");
  r.e2e["cpu_per_op_ref"] = median(ref_per_op);
  r.e2e["quality_pct"] = 100.0 * mean_acc;
  r.e2e["ands"] = mean_ands;

  if (args.trace) {
    fill_registry_layers(first.delta, &r);
    const double runs = first.delta.get("lsml_synth_runs_total");
    const double hits = first.delta.get("lsml_synth_memo_hits_total");
    r.layer["portfolio.finish_runs_per_task"] =
        (runs + hits) / static_cast<double>(tasks);
    r.layer["portfolio.kept_frac"] =
        runs + hits > 0 ? static_cast<double>(tasks) / (runs + hits) : 0.0;
    r.layer["aig.read_aag_mb_per_s"] = aag_s > 0 ? aag_bytes / 1e6 / aag_s : 0;
    r.layer["pla.parse_s"] = first.pla_parse_s;
    r.layer["suite.cache_hit_frac"] = first.warm_hit_frac;
    r.layer["learn.fit_s.team"] =
        mean(task_ms) * static_cast<double>(task_ms.size()) / 1e3 / reps.size();

    Rep traced_rep;
    const auto spans = traced([&] {
      traced_rep = one_rep(static_cast<int>(reps.size()));
    });
    r.check(traced_rep.leaderboard == first.leaderboard,
            "leaderboard differs with tracing on");
    r.layer["obs.overhead_frac"] = traced_rep.wall_s / median(wall) - 1.0;
    const auto fit = spans.find("fit");
    r.layer["learn.fit_self_s"] =
        fit == spans.end() ? 0.0 : fit->second.self_s;
    const auto solve = spans.find("solve");
    r.layer["sat.solve_s"] =
        solve == spans.end() ? 0.0 : solve->second.total_s;
    fill_trace_layers(spans, {"task"}, &r);
  }
  remove_tree(root);
  return r;
}

}  // namespace lsmlbench
