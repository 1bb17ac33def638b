#pragma once
// The contest engine: the one runner of (team x benchmark) tasks, behind
// `lsml run`, the benches and the examples.
//
// Runs the requested contest entries over a suite — loaded from a
// directory (one PLA triple per benchmark) or already in memory — sharded
// across core::ThreadPool with the seeding rule of portfolio::contest_rng,
// so every run is bit-identical to the serial portfolio::run_suite at any
// thread count. Completed tasks are memoized in a ResultCache keyed by
// content hash: a second run over unchanged inputs recomputes nothing and
// rewrites byte-identical artifacts. Outputs:
//   <out>/aig/<team_key>/<benchmark>.aag   synthesized circuits (AIGER)
//   <out>/leaderboard.csv                  per-(team, benchmark) rows
//   <out>/leaderboard.json                 Table III columns per team

#include <cstdint>
#include <string>
#include <vector>

#include "portfolio/contest.hpp"
#include "suite/result_cache.hpp"
#include "synth/script_search.hpp"

namespace lsml::suite {

struct RunnerOptions {
  std::string out_dir = "lsml-out";
  /// Incremental store location; empty disables caching entirely.
  std::string cache_dir = ".lsml-cache";
  std::uint64_t seed = 2020;  ///< contest seed (IWLS vintage default)
  /// Mixed into every cache key. Must digest any entry configuration the
  /// factory name does not capture (e.g. the team grid scale), so results
  /// computed under one configuration are never served under another.
  std::uint64_t config_salt = 0;
  /// Task workers: 1/negative serial, 0 one per hardware thread, N > 1
  /// exactly N. Never changes results.
  int num_threads = 0;
  int verbosity = 0;
  /// Skip AIGER/leaderboard files (tests and benches that only want runs).
  bool write_artifacts = true;
  /// Optimization request applied to every task's circuit (script-or-auto,
  /// budgets, verify, search seed). Installed as the process default for
  /// the duration of the run and digested into every cache key (a
  /// different script, budget, or search configuration is a different
  /// task). Its experience_dir is overridden with `cache_dir` at run time
  /// so an auto run's learned scripts persist next to its results.
  synth::OptRequest opt;
  /// Soft wall-clock budget for the whole run; 0 = unlimited. All tasks
  /// run to completion (determinism first); blowing the budget only flags
  /// the run in `stats` (and on stderr at verbosity >= 1).
  std::int64_t time_budget_ms = 0;
};

struct RunnerReport {
  std::vector<portfolio::TeamRun> runs;  ///< ordered as `entries`
  std::vector<std::string> benchmarks;   ///< suite order (sorted by name)
  int cache_hits = 0;
  int cache_misses = 0;
  double elapsed_ms = 0.0;
  /// Tasks, elapsed time and the soft-budget flag; cache hits count as
  /// completed tasks.
  portfolio::ContestStats stats;
  std::string leaderboard_csv_path;  ///< empty unless artifacts written
  std::string leaderboard_json_path;
};

/// Directory key an entry's artifacts and cache rows are filed under: the
/// factory's registered name when set, else "team<N>".
std::string entry_key(const portfolio::ContestEntry& entry);

/// Runs `entries` over an already-loaded suite (tests, benches and
/// examples call this directly; `lsml run` goes through run_suite_dir).
/// With `cache_dir` empty and `write_artifacts` off it is a pure
/// in-memory contest. Throws std::invalid_argument when two entries share
/// an entry_key while the cache is enabled or artifacts are written, since
/// their cache rows or AIGER files would collide.
RunnerReport run_contest_on(const std::vector<portfolio::ContestEntry>& entries,
                            const std::vector<oracle::Benchmark>& suite,
                            const RunnerOptions& options);

/// Discovers + loads `suite_dir`, then runs `entries` over it.
RunnerReport run_suite_dir(const std::string& suite_dir,
                           const std::vector<portfolio::ContestEntry>& entries,
                           const RunnerOptions& options);

}  // namespace lsml::suite
