// synth_cec: per-circuit latency of `lsml synth resyn2fs --verify` and
// `lsml cec`, on one thread. Each circuit of a seeded corpus goes through
// PassManager::run (resyn2fs, verify_equivalence on), then sat::cec checks
// the (raw, optimized) pair, known equivalent, and a (raw, mutant) pair
// whose difference packed simulation showed first, known to differ. The
// corpus mixes aig::random_cone cones of all three flavors with raw
// circuits of the registered dt, rf and espresso learners.

#include <algorithm>

#include "aig/aig_io.hpp"
#include "aig/aig_random.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "core/config.hpp"
#include "core/rng.hpp"
#include "learn/factory.hpp"
#include "oracle/suite.hpp"
#include "pla/pla.hpp"
#include "portfolio/team.hpp"
#include "sat/cec.hpp"
#include "suite/generate.hpp"
#include "suite/manifest.hpp"
#include "suite/runner.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script.hpp"
#include "synth/script_search.hpp"

namespace lsmlbench {

namespace {

using namespace lsml;

struct Circuit {
  std::string kind;  ///< "cone/random", "learn/dt", ...
  aig::Aig raw{0};
  aig::Aig mutant{0};
  bool has_mutant = false;
};

struct Config {
  /// (construction target, flavor) of every cone; random_cone's result
  /// is usually smaller than the target.
  std::vector<std::pair<std::uint32_t, aig::ConeFlavor>> cones;
  std::uint32_t cone_inputs = 32;
  std::vector<int> learn_ids;  ///< contest benchmarks the learners fit
  std::size_t rows = 0;
  /// Contest teams whose deliverables over `contest_ids` join the corpus.
  std::vector<int> teams;
  std::vector<int> contest_ids;
};

/// What building the corpus measured in the layers it went through.
struct SetupLayers {
  std::map<std::string, double> fit_s;  ///< per registered learner
  double pla_parse_s = 0.0;
  double finish_runs_per_task = 0.0;
  double kept_frac = 0.0;
  double cache_hit_frac = 0.0;
};

Config config_for(const Args& args) {
  Config c;
  using F = aig::ConeFlavor;
  if (args.size == "tiny") {
    c.cones = {{100, F::kRandom}, {100, F::kXorRich}, {60, F::kArith}};
    c.learn_ids = {60};
    c.rows = 100;
    c.teams = {9};
    c.contest_ids = {61};
    return c;
  }
  // SAT cost grows steeply with size on the XOR-rich and arithmetic
  // flavors, so their cones stay smaller; ten of each slot.
  for (int rep = 0; rep < 10; ++rep) {
    for (const std::uint32_t n : {100u, 200u, 400u, 800u, 1600u}) {
      c.cones.emplace_back(n, F::kRandom);
    }
    for (const std::uint32_t n : {100u, 150u, 200u}) {
      c.cones.emplace_back(n, F::kXorRich);
    }
    for (const std::uint32_t n : {60u, 100u, 150u}) {
      c.cones.emplace_back(n, F::kArith);
    }
  }
  // Benchmarks whose rf circuit takes at most ~0.4 s through resyn2fs and
  // verification; on some others (ex50, ex70, ex71, ex73, ex74) a single
  // one takes 3 to 11 s and would decide the corpus's cost.
  c.learn_ids = {54, 56, 57, 58, 59, 66, 67, 68, 69, 84};
  c.rows = 150;
  c.teams = {2, 9};
  c.contest_ids = {61, 66};
  return c;
}

/// Copies `g` with the complement of one fanin edge of AND `victim`
/// flipped.
aig::Aig flip_edge(const aig::Aig& g, std::uint32_t victim, bool second) {
  aig::Aig out(g.num_pis());
  std::vector<aig::Lit> map(g.num_nodes(), 0);
  for (std::uint32_t i = 0; i < g.num_pis(); ++i) {
    map[i + 1] = out.pi(i);
  }
  const auto mapped = [&](aig::Lit l) {
    return aig::lit_notc(map[aig::lit_var(l)], aig::lit_compl(l));
  };
  for (std::uint32_t v = g.num_pis() + 1; v < g.num_nodes(); ++v) {
    aig::Lit a = mapped(g.fanin0(v));
    aig::Lit b = mapped(g.fanin1(v));
    if (v == victim) {
      (second ? b : a) ^= 1u;
    }
    map[v] = out.and2(a, b);
  }
  for (const aig::Lit o : g.outputs()) {
    out.add_output(mapped(o));
  }
  return out.cleanup();
}

/// A mutant packed simulation proves different from `g` (over 4096 random
/// rows), or nothing when a few tries find none.
bool make_mutant(const aig::Aig& g, core::Rng& rng, aig::Aig* out) {
  const std::size_t rows = 4096;
  data::Dataset patterns(g.num_pis(), rows);
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    for (std::size_t r = 0; r < rows; ++r) {
      patterns.set_input(r, i, rng.flip(0.5));
    }
  }
  const auto cols = patterns.column_ptrs();
  const std::vector<core::BitVec> want = g.simulate(cols);
  for (int attempt = 0; attempt < 16 && g.num_ands() > 0; ++attempt) {
    const std::uint32_t victim =
        g.num_pis() + 1 + static_cast<std::uint32_t>(rng.below(g.num_ands()));
    aig::Aig m = flip_edge(g, victim, rng.flip(0.5));
    if (m.simulate(cols) != want) {
      *out = std::move(m);
      return true;
    }
  }
  return false;
}

/// Contest deliverables: cheap teams over a small generated suite through
/// suite::run_suite_dir, cold and then warm from its result cache.
void add_contest_circuits(const Config& cfg, std::uint64_t seed,
                          const std::string& dir, std::vector<Circuit>* corpus,
                          SetupLayers* layers) {
  const std::string suite_dir = fresh_dir(dir + "/suite");
  for (const int id : cfg.contest_ids) {
    suite::GenerateOptions g;
    g.first = id;
    g.last = id;
    g.rows_per_split = cfg.rows;
    g.seed = seed;
    suite::generate_suite(suite_dir, g);
  }
  const auto t0 = Clock::now();
  for (const auto& entry : suite::discover_suite(suite_dir)) {
    (void)pla::read_pla_file(entry.train_path);
    (void)pla::read_pla_file(entry.valid_path);
    (void)pla::read_pla_file(entry.test_path);
  }
  layers->pla_parse_s = seconds_since(t0);

  portfolio::TeamOptions team_options;
  team_options.scale = core::Scale::kSmoke;
  const std::vector<portfolio::ContestEntry> entries =
      portfolio::contest_entries(cfg.teams, team_options);
  suite::RunnerOptions ro;
  ro.out_dir = dir + "/out";
  ro.cache_dir = fresh_dir(dir + "/cache");
  ro.seed = seed;
  ro.config_salt = static_cast<std::uint64_t>(core::Scale::kSmoke);
  ro.num_threads = 1;
  const RegistrySnapshot before = RegistrySnapshot::take();
  const suite::RunnerReport cold = suite::run_suite_dir(suite_dir, entries, ro);
  const RegistrySnapshot d = RegistrySnapshot::take().minus(before);
  const suite::RunnerReport warm = suite::run_suite_dir(suite_dir, entries, ro);
  const double tasks = static_cast<double>(cold.cache_misses);
  const double finished = d.get("lsml_synth_runs_total") +
                          d.get("lsml_synth_memo_hits_total");
  layers->finish_runs_per_task = tasks > 0 ? finished / tasks : 0;
  layers->kept_frac = finished > 0 ? tasks / finished : 0;
  layers->cache_hit_frac =
      static_cast<double>(warm.cache_hits) /
      std::max(1, warm.cache_hits + warm.cache_misses);
  for (const auto& entry : entries) {
    for (const std::string& name : cold.benchmarks) {
      corpus->push_back(
          {"contest/" + suite::entry_key(entry),
           aig::read_aag_file(ro.out_dir + "/aig/" + suite::entry_key(entry) +
                              "/" + name + ".aag")});
    }
  }
}

std::vector<Circuit> make_corpus(const Config& cfg, std::uint64_t seed,
                                 const std::string& dir, SetupLayers* layers) {
  std::vector<Circuit> corpus;
  core::Rng rng(seed);
  const char* flavor_names[] = {"cone/random", "cone/xor", "cone/arith"};
  for (std::size_t i = 0; i < cfg.cones.size(); ++i) {
    aig::ConeOptions o;
    o.num_inputs = cfg.cone_inputs;
    o.num_ands = cfg.cones[i].first;
    o.flavor = cfg.cones[i].second;
    core::Rng cone_rng = rng.split(i, 1);
    corpus.push_back({flavor_names[static_cast<int>(o.flavor)],
                      aig::random_cone(o, cone_rng)});
  }
  // Learner circuits come out raw: the installed request only cleans up.
  synth::OptRequest raw;
  raw.script = "c";
  raw.options.node_budget = 0;
  raw.options.max_rounds = 1;
  const synth::ScopedOptRequest scoped(raw);
  oracle::SuiteOptions so;
  so.rows_per_split = cfg.rows;
  so.seed = seed;
  for (const int id : cfg.learn_ids) {
    const oracle::Benchmark bench = oracle::make_benchmark(id, so);
    for (const char* name : {"dt", "rf", "espresso"}) {
      const std::unique_ptr<learn::Learner> learner =
          learn::LearnerFactory::from_registry(name).make();
      core::Rng fit_rng = rng.split(static_cast<std::uint64_t>(id), 7);
      const auto t0 = Clock::now();
      learn::TrainedModel m = learner->fit(bench.train, bench.valid, fit_rng);
      layers->fit_s[name] += seconds_since(t0);
      corpus.push_back({std::string("learn/") + name, std::move(m.circuit)});
    }
  }
  add_contest_circuits(cfg, seed, dir, &corpus, layers);
  for (Circuit& c : corpus) {
    c.has_mutant = make_mutant(c.raw, rng, &c.mutant);
  }
  return corpus;
}

}  // namespace

Report run_synth_cec(const Args& args) {
  Report r;
  r.workload = "synth_cec";
  const Config cfg = config_for(args);

  std::vector<double> setup_s;
  std::vector<Circuit> corpus;
  SetupLayers setup_layers;
  // Set-up: build the corpus five times, each cold; the median counts.
  const std::string dir = args.work_dir + "/synth_cec";
  for (int i = 0; i < 5; ++i) {
    setup_layers = {};
    synth::PassManager::clear_memo();
    const auto t0 = Clock::now();
    corpus = make_corpus(cfg, args.seed, dir, &setup_layers);
    setup_s.push_back(seconds_since(t0));
  }
  remove_tree(dir);
  std::vector<double> ands_in;
  for (const Circuit& c : corpus) {
    ands_in.push_back(c.raw.num_ands());
  }
  r.notes.push_back(std::to_string(corpus.size()) + " circuits, mean " +
                    std::to_string(mean(ands_in)) +
                    " ANDs in; resyn2fs, verify on, 1 round, uncapped");

  synth::SynthOptions so;
  so.node_budget = 0;
  so.max_rounds = 1;
  so.verify_equivalence = true;
  const synth::PassManager pm(so);
  const synth::Script script = synth::Script::preset("resyn2fs");
  const sat::CecLimits limits;  // 100k conflicts, as `lsml cec`

  // Latency samples per circuit and per cec pair, one per pass; each
  // circuit's latency is the median over its passes.
  std::vector<std::vector<double>> synth_samples(corpus.size());
  std::map<std::pair<std::size_t, bool>, std::vector<double>> cec_samples;
  std::vector<double> ratios;
  std::vector<double> ands_out;
  std::vector<std::uint64_t> first_pass_hashes;
  int pairs = 0;
  int decided = 0;
  double cpu_s = 0.0;
  int circuits_done = 0;
  // Before each circuit the reference computation runs kRefUnits timed
  // units; each pass's CPU per circuit in reference units is one sample.
  constexpr int kRefUnits = 3;
  double ref_ms = 0.0;
  double ref_wall_s = 0.0;  ///< all passes; left out of the pass times
  std::vector<double> pass_ref_per_op;
  std::vector<double> pass_unit_ms;
  std::map<std::string, double> kind_s;  ///< synth + cec time per kind

  // One pass = every circuit once; passes repeat while the window lasts
  // (at least one). The traced run spends half the window untraced.
  const auto one_pass = [&](bool record) {
    std::vector<std::uint64_t> hashes;
    const bool first = first_pass_hashes.empty();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Circuit& c = corpus[i];
      if (record) {
        const auto r0 = Clock::now();
        ref_ms += reference_unit_ms(kRefUnits);
        ref_wall_s += seconds_since(r0);
      }
      BenchSpan circuit_span("circuit");
      const double cpu0 = process_cpu_s();
      OpCount& synth_op = r.op("synth");
      ++synth_op.attempted;
      const auto t0 = Clock::now();
      synth::SynthResult res;
      {
        BenchSpan span("synth.run");
        res = pm.run(c.raw, script);
      }
      const double ms = seconds_since(t0) * 1e3;
      const bool exact_or_open = res.verify == synth::VerifyStatus::kExact ||
                                 res.verify == synth::VerifyStatus::kUndecided;
      if (!exact_or_open) {
        ++synth_op.failed;
      }
      r.check(exact_or_open, c.kind + ": resyn2fs verify status " +
                                 synth::to_string(res.verify));
      hashes.push_back(res.circuit.content_hash());

      const auto run_cec = [&](const aig::Aig& other, bool known_equal,
                               const char* kind) {
        OpCount& op = r.op(kind);
        ++op.attempted;
        const auto c0 = Clock::now();
        sat::CecResult v;
        {
          BenchSpan span("cec");
          v = sat::cec(c.raw, other, limits);
        }
        const double cms = seconds_since(c0) * 1e3;
        const std::string why =
            check_cec(known_equal, v.status, v.counterexample,
                      v.failing_output, c.raw, other);
        if (!why.empty()) {
          ++op.failed;
        }
        r.check(why.empty(), c.kind + ": " + why);
        if (record) {
          cec_samples[{i, known_equal}].push_back(cms);
        }
        if (first) {
          ++pairs;
          decided += v.status != sat::CecStatus::kUndecided ? 1 : 0;
        }
      };
      run_cec(res.circuit, true, "cec_equal");
      if (c.has_mutant) {
        run_cec(c.mutant, false, "cec_differ");
      }
      if (first) {
        ratios.push_back(std::max<double>(res.circuit.num_ands(), 1) /
                         std::max<double>(c.raw.num_ands(), 1));
        ands_out.push_back(res.circuit.num_ands());
      }
      if (record) {
        synth_samples[i].push_back(ms);
        cpu_s += process_cpu_s() - cpu0;
        kind_s[c.kind] += seconds_since(t0);
        ++circuits_done;
      }
    }
    if (first) {
      first_pass_hashes = hashes;
    }
    r.check(hashes == first_pass_hashes,
            "optimized circuits differ between repetitions");
  };

  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const RegistrySnapshot before = RegistrySnapshot::take();
  const auto start = Clock::now();
  double pass_s = 0.0;
  int passes = 0;
  do {
    const auto p0 = Clock::now();
    const double cpu0 = cpu_s;
    ref_ms = 0.0;
    one_pass(true);
    pass_s = seconds_since(p0);
    pass_ref_per_op.push_back((cpu_s - cpu0) * 1e3 / ref_ms);
    pass_unit_ms.push_back(ref_ms / static_cast<double>(corpus.size()));
    ++passes;
  } while (seconds_since(start) + pass_s < window);
  const RegistrySnapshot delta = RegistrySnapshot::take().minus(before);
  const double wall_per_pass = (seconds_since(start) - ref_wall_s) / passes;

  std::vector<double> synth_ms;
  for (const auto& samples : synth_samples) {
    synth_ms.push_back(median(samples));
  }
  std::vector<double> cec_ms;
  for (const auto& [pair, samples] : cec_samples) {
    cec_ms.push_back(median(samples));
  }
  const double tail_q = tail_level(synth_ms.size());
  const double mean_ands = mean(ands_out);
  const double decided_frac =
      pairs > 0 ? static_cast<double>(decided) / pairs : 0;

  r.set("setup_s", median(setup_s), "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("synth.p50_ms", median(synth_ms), "ms");
  r.set("synth.p90_ms", quantile(synth_ms, 0.9), "ms");
  r.set("synth.tail_ms", quantile(synth_ms, tail_q), "ms");
  r.set("synth.tail_level", tail_q, "quantile");
  r.set("synth.circuits", static_cast<double>(synth_ms.size()), "count");
  r.set("synth.ands_ratio", geomean(ratios), "ratio");
  r.set("cec.p50_ms", median(cec_ms), "ms");
  r.set("cec.decided_frac", decided_frac, "ratio");
  r.set("cec.pairs", pairs, "count");
  r.set("synth_cec.pass_s", wall_per_pass, "s");
  r.set("synth_cec.passes", passes, "count");
  for (const auto& [kind, sec] : kind_s) {
    r.set("synth_cec.kind_s." + kind, sec / passes, "s");
  }

  r.e2e["setup_s"] = median(setup_s);
  r.e2e["peak_rss_mb"] = peak_rss_mb();
  r.set("synth_cec.circuits_per_s",
        static_cast<double>(corpus.size()) / wall_per_pass, "1/s");
  r.set("synth_cec.cpu_ms_per_op",
        circuits_done > 0 ? cpu_s * 1e3 / circuits_done : 0, "ms");
  r.set("reference_unit_ms", median(pass_unit_ms), "ms");
  r.e2e["cpu_per_op_ref"] = median(pass_ref_per_op);
  r.e2e["quality_pct"] = 100.0 * decided_frac;
  r.e2e["ands"] = mean_ands;

  if (args.trace) {
    fill_registry_layers(delta, &r);
    r.layer["sat.undecided_frac"] = 1.0 - decided_frac;
    for (const auto& [name, s] : setup_layers.fit_s) {
      r.layer["learn.fit_s." + name] = s;
    }
    r.layer["pla.parse_s"] = setup_layers.pla_parse_s;
    r.layer["portfolio.finish_runs_per_task"] =
        setup_layers.finish_runs_per_task;
    r.layer["portfolio.kept_frac"] = setup_layers.kept_frac;
    r.layer["suite.cache_hit_frac"] = setup_layers.cache_hit_frac;
    const auto spans = traced([&] {
      const auto t0 = Clock::now();
      one_pass(false);
      r.layer["obs.overhead_frac"] = seconds_since(t0) / wall_per_pass - 1.0;
    });
    const auto solve = spans.find("solve");
    r.layer["sat.solve_s"] = solve == spans.end() ? 0.0 : solve->second.total_s;
    fill_trace_layers(spans, {"circuit"}, &r);
  }
  return r;
}

}  // namespace lsmlbench
