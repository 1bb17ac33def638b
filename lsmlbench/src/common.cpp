// Shared measurement plumbing: statistics, process accounting, registry
// deltas, trace self times, host fingerprint, and the result printer.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/simd.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "server/json.hpp"

namespace lsmlbench {

namespace fs = std::filesystem;
using lsml::server::Json;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"cpu_per_op_ref", "ref"},
    {"quality_pct", "%"},   {"ands", "count"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"portfolio.finish_runs_per_task", "count"},
    {"portfolio.kept_frac", "ratio"},
    {"synth.pass_s.c", "s"},
    {"synth.pass_s.b", "s"},
    {"synth.pass_s.rw", "s"},
    {"synth.pass_s.rf", "s"},
    {"synth.pass_s.fs", "s"},
    {"synth.pass_s.approx", "s"},
    {"synth.pass_calls.c", "count"},
    {"synth.pass_calls.b", "count"},
    {"synth.pass_calls.rw", "count"},
    {"synth.pass_calls.rf", "count"},
    {"synth.pass_calls.fs", "count"},
    {"synth.pass_calls.approx", "count"},
    {"synth.pass_and_delta.c", "count"},
    {"synth.pass_and_delta.b", "count"},
    {"synth.pass_and_delta.rw", "count"},
    {"synth.pass_and_delta.rf", "count"},
    {"synth.pass_and_delta.fs", "count"},
    {"synth.pass_and_delta.approx", "count"},
    {"synth.memo_hit_frac", "ratio"},
    {"learn.fit_s.dt", "s"},
    {"learn.fit_s.rf", "s"},
    {"learn.fit_s.espresso", "s"},
    {"learn.fit_s.team", "s"},
    {"learn.fit_self_s", "s"},
    {"sim.sweeps", "count"},
    {"sim.words", "count"},
    {"sim.sweep_s", "s"},
    {"sim.words_per_us", "1/us"},
    {"sat.solves", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.solve_s", "s"},
    {"sat.undecided_frac", "ratio"},
    {"json.parse_mb_per_s", "MB/s"},
    {"json.dump_mb_per_s", "MB/s"},
    {"server.op_p50_us.eval", "us"},
    {"server.op_p50_us.learn", "us"},
    {"server.op_p50_us.synth", "us"},
    {"server.op_p50_us.cec", "us"},
    {"server.queue_wait_p50_us", "us"},
    {"server.queue_wait_p99_us", "us"},
    {"server.transport_p50_us", "us"},
    {"server.eval_coalesced_frac", "ratio"},
    {"server.loop_iters_per_req", "count"},
    {"aig.read_aag_mb_per_s", "MB/s"},
    {"pla.parse_s", "s"},
    {"suite.cache_hit_frac", "ratio"},
    {"obs.overhead_frac", "ratio"},
    {"trace.busy_s", "s"},
    {"trace.self_frac.bench", "ratio"},
    {"trace.self_frac.suite", "ratio"},
    {"trace.self_frac.synth", "ratio"},
    {"trace.self_frac.sat", "ratio"},
    {"trace.self_frac.sim", "ratio"},
    {"trace.self_frac.server", "ratio"},
    {"trace.unattributed_frac", "ratio"},
};

std::int64_t Report::attempted() const {
  std::int64_t n = 0;
  for (const auto& [kind, c] : ops) {
    n += c.attempted;
  }
  return n;
}

std::int64_t Report::failed() const {
  std::int64_t n = 0;
  for (const auto& [kind, c] : ops) {
    n += c.failed;
  }
  return n;
}

// ------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double tail_level(std::size_t n) {
  for (const double q : {0.99, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) {
      return q;
    }
  }
  return 0.5;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double x : v) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

/// The reference computation's data: a random AND graph whose fanins
/// mostly sit close below each node (as in a levelized AIG), and an
/// open-addressing table from fanin pairs to nodes. Built once, the same
/// in every run and every build of the program.
struct ReferenceGraph {
  static constexpr std::uint32_t kPis = 64;
  static constexpr std::uint32_t kNodes = 1u << 15;
  std::vector<std::uint32_t> fanin0, fanin1;  ///< literal: 2 * node + compl
  std::vector<std::uint64_t> table;           ///< (f0 << 32 | f1) + 1, or 0

  ReferenceGraph() : fanin0(kNodes), fanin1(kNodes), table(2 * kNodes, 0) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::uint32_t v = kPis; v < kNodes; ++v) {
      const auto pick = [&] {
        const std::uint64_t r = next();
        const std::uint32_t back =
            (r & 3) == 0 ? 1 + static_cast<std::uint32_t>((r >> 2) % v)
                         : 1 + static_cast<std::uint32_t>((r >> 2) % 64);
        const std::uint32_t node = back >= v ? 0 : v - back;
        return 2 * node + static_cast<std::uint32_t>((r >> 40) & 1);
      };
      fanin0[v] = pick();
      fanin1[v] = pick();
      std::uint64_t slot = hash(fanin0[v], fanin1[v]);
      while (table[slot] != 0) {
        slot = (slot + 1) & (table.size() - 1);
      }
      table[slot] = (static_cast<std::uint64_t>(fanin0[v]) << 32 | fanin1[v]) + 1;
    }
  }

  [[nodiscard]] std::uint64_t hash(std::uint32_t a, std::uint32_t b) const {
    return ((static_cast<std::uint64_t>(a) * 0x9e3779b97f4a7c15ull) ^
            (static_cast<std::uint64_t>(b) * 0xc2b2ae3d27d4eb4full)) >>
               40 &
           (table.size() - 1);
  }

  /// One unit: simulate every node on a fresh word into `value` (kNodes
  /// words), then look every node's fanin pair up in the table.
  std::uint64_t unit(std::uint64_t seed, std::uint64_t* value) const {
    for (std::uint32_t v = 0; v < kPis; ++v) {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      value[v] = seed;
    }
    const auto lit = [&](std::uint32_t l) {
      return value[l >> 1] ^ (0 - static_cast<std::uint64_t>(l & 1));
    };
    for (std::uint32_t v = kPis; v < kNodes; ++v) {
      value[v] = lit(fanin0[v]) & lit(fanin1[v]);
    }
    std::uint64_t found = 0;
    for (std::uint32_t v = kPis; v < kNodes; ++v) {
      const std::uint32_t a = fanin0[v] ^ static_cast<std::uint32_t>(value[v] & 2);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(a) << 32 | fanin1[v]) + 1;
      std::uint64_t slot = hash(a, fanin1[v]);
      while (table[slot] != 0 && table[slot] != key) {
        slot = (slot + 1) & (table.size() - 1);
      }
      found += table[slot] == key ? 1 : 0;
    }
    return found ^ value[kNodes - 1];
  }
};

}  // namespace

double reference_unit_ms(int units, int threads) {
  static const ReferenceGraph graph;
  // One simulation buffer per thread, kept from call to call so that the
  // reference does not churn the allocator the measured program shares.
  static std::vector<std::uint64_t> values;
  static std::atomic<std::uint64_t> sink{0};
  const std::size_t n = static_cast<std::size_t>(std::max(threads, 1));
  values.resize(std::max(values.size(), n * ReferenceGraph::kNodes));
  std::vector<double> ms(n);
  const auto run = [&](std::size_t t) {
    std::uint64_t* value = values.data() + t * ReferenceGraph::kNodes;
    // An untimed first unit brings the data into this core's caches, so
    // the figure does not depend on what ran here before.
    std::uint64_t acc = graph.unit(t, value);
    const double t0 = thread_cpu_s();
    for (int i = 0; i < units; ++i) {
      acc += graph.unit(acc + static_cast<std::uint64_t>(i), value);
    }
    ms[t] = (thread_cpu_s() - t0) * 1e3 / std::max(units, 1);
    sink.fetch_add(acc, std::memory_order_relaxed);
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < n; ++t) {
    pool.emplace_back(run, t);
  }
  run(0);
  for (std::thread& t : pool) {
    t.join();
  }
  return mean(ms);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// --------------------------------------------------------- registry deltas

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot snap;
  std::istringstream in(lsml::obs::Registry::instance().expose_prometheus());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' ||
        line.find("_bucket") != std::string::npos) {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      continue;
    }
    snap.series_[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return snap;
}

double RegistrySnapshot::get(const std::string& series) const {
  const auto it = series_.find(series);
  return it == series_.end() ? 0.0 : it->second;
}

RegistrySnapshot RegistrySnapshot::minus(const RegistrySnapshot& before) const {
  RegistrySnapshot d;
  for (const auto& [name, value] : series_) {
    d.series_[name] = value - before.get(name);
  }
  return d;
}

std::map<std::string, double> RegistrySnapshot::by_label(
    const std::string& family, const std::string& suffix) const {
  // Series look like: family_suffix{label="value"}.
  const std::string prefix = family + suffix + "{";
  std::map<std::string, double> out;
  for (const auto& [name, value] : series_) {
    if (name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::size_t q0 = name.find('"', prefix.size());
    const std::size_t q1 = name.find('"', q0 + 1);
    if (q0 == std::string::npos || q1 == std::string::npos) {
      continue;
    }
    const std::string label = name.substr(q0 + 1, q1 - q0 - 1);
    out[label.substr(0, label.find(' '))] += value;
  }
  return out;
}

std::vector<std::uint64_t> histogram_buckets(const std::string& name) {
  std::vector<std::uint64_t> b(lsml::obs::kHistogramBuckets, 0);
  if (const auto snap =
          lsml::obs::Registry::instance().histogram_snapshot(name)) {
    std::copy(snap->buckets.begin(), snap->buckets.end(), b.begin());
  }
  return b;
}

double histogram_delta_quantile(const std::string& name, double q,
                                const std::vector<std::uint64_t>& before) {
  const std::vector<std::uint64_t> now = histogram_buckets(name);
  lsml::obs::HistogramSnapshot delta;
  for (std::size_t i = 0; i < now.size(); ++i) {
    delta.buckets[i] = now[i] - (i < before.size() ? before[i] : 0);
    delta.count += delta.buckets[i];
  }
  return delta.quantile(q);
}

void fill_registry_layers(const RegistrySnapshot& d, Report* r) {
  const auto pass_us = d.by_label("lsml_synth_pass_us", "_sum");
  const auto pass_calls = d.by_label("lsml_synth_pass_us", "_count");
  const auto pass_delta = d.by_label("lsml_synth_pass_and_delta", "_sum");
  const auto at = [](const std::map<std::string, double>& m,
                     const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const char* pass : {"c", "b", "rw", "rf", "fs", "approx"}) {
    r->layer[std::string("synth.pass_s.") + pass] = at(pass_us, pass) / 1e6;
    r->layer[std::string("synth.pass_calls.") + pass] = at(pass_calls, pass);
    r->layer[std::string("synth.pass_and_delta.") + pass] =
        at(pass_delta, pass);
  }
  const double runs = d.get("lsml_synth_runs_total");
  const double hits = d.get("lsml_synth_memo_hits_total");
  r->layer["synth.memo_hit_frac"] = runs + hits > 0 ? hits / (runs + hits) : 0;

  const double sweep_us = d.get("lsml_sim_sweep_us_sum");
  r->layer["sim.sweeps"] = d.get("lsml_sim_sweeps_total");
  r->layer["sim.words"] = d.get("lsml_sim_words_total");
  r->layer["sim.sweep_s"] = sweep_us / 1e6;
  r->layer["sim.words_per_us"] =
      sweep_us > 0 ? d.get("lsml_sim_words_total") / sweep_us : 0;

  r->layer["sat.solves"] = d.get("lsml_sat_solves_total");
  r->layer["sat.conflicts"] = d.get("lsml_sat_conflicts_total");
  r->layer["sat.propagations"] = d.get("lsml_sat_propagations_total");
}

// ---------------------------------------------------------------- tracing

void tracer_on() {
  lsml::obs::Tracer::enable(1u << 18);
  lsml::obs::Tracer::reset();
}

void tracer_off() {
  lsml::obs::Tracer::disable();
  lsml::obs::Tracer::reset();
}

BenchSpan::BenchSpan(const char* name)
    : name_(lsml::obs::Tracer::enabled() ? name : nullptr) {
  if (name_ != nullptr) {
    start_ = Clock::now();
  }
}

BenchSpan::~BenchSpan() {
  if (name_ != nullptr) {
    lsml::obs::Tracer::record(name_, "bench", start_, Clock::now());
  }
}

std::map<std::string, SpanStat> collect_span_stats() {
  std::ostringstream os;
  lsml::obs::Tracer::export_chrome_trace(os);
  const Json trace = Json::parse(os.str());
  struct Ev {
    double start;
    double end;
    const std::string* name;
    const std::string* cat;
  };
  std::map<std::int64_t, std::vector<Ev>> by_tid;
  std::map<std::string, SpanStat> out;
  const Json& events = trace.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    const double ts = e.at("ts").as_double();
    const double dur = e.at("dur").as_double();
    const std::string& name = e.at("name").as_string();
    if (name == "queue_wait") {
      // Recorded at pick-up from the frame time, so it overlaps whatever
      // the worker ran before; it is waiting, not a parent or child.
      SpanStat& s = out[name];
      s.cat = e.at("cat").as_string();
      s.calls += 1;
      s.total_s += dur / 1e6;
      continue;
    }
    by_tid[e.at("tid").as_int()].push_back(
        {ts, ts + dur, &name, &e.at("cat").as_string()});
  }
  for (auto& [tid, evs] : by_tid) {
    // Parents first: earlier start, and the longer span on equal starts.
    std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    // Self time = duration - time covered by direct children. Spans on
    // one thread nest (RAII), so a stack of open ancestors suffices.
    std::vector<std::size_t> stack;
    std::vector<double> child_us(evs.size(), 0.0);
    for (std::size_t i = 0; i < evs.size(); ++i) {
      while (!stack.empty() && evs[stack.back()].end <= evs[i].start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        const Ev& p = evs[stack.back()];
        child_us[stack.back()] +=
            std::min(evs[i].end, p.end) - evs[i].start;
      }
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < evs.size(); ++i) {
      SpanStat& s = out[*evs[i].name];
      s.cat = *evs[i].cat;
      s.calls += 1;
      const double dur = evs[i].end - evs[i].start;
      s.total_s += dur / 1e6;
      s.self_s += std::max(0.0, dur - child_us[i]) / 1e6;
    }
  }
  const std::uint64_t dropped = lsml::obs::Tracer::dropped();
  if (dropped > 0) {
    out["(dropped spans)"].calls = static_cast<std::int64_t>(dropped);
  }
  return out;
}

void fill_trace_layers(const std::map<std::string, SpanStat>& spans,
                       const std::set<std::string>& roots, Report* r) {
  // Busy time: the summed duration of the root spans (contest tasks,
  // synth_cec circuits, serve request handling). Every self time is
  // reported as a share of it; the roots' own self time is what no deeper
  // span explains (serve's parse and serialize are the JSON layer itself).
  double busy = 0.0;
  double unattributed = 0.0;
  std::map<std::string, double> by_cat;
  for (const auto& [name, s] : spans) {
    if (roots.count(name) != 0) {
      busy += s.total_s;
      if (name != "parse" && name != "serialize") {
        unattributed += s.self_s;
      }
    }
    by_cat[s.cat] += s.self_s;
  }
  r->layer["trace.busy_s"] = busy;
  for (const char* cat : {"bench", "suite", "synth", "sat", "sim", "server"}) {
    r->layer[std::string("trace.self_frac.") + cat] =
        busy > 0 ? by_cat[cat] / busy : 0.0;
  }
  r->layer["trace.unattributed_frac"] = busy > 0 ? unattributed / busy : 0.0;

  std::vector<std::pair<std::string, SpanStat>> rows(spans.begin(),
                                                     spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-22s %-7s %9s %11s %11s %8s", "span",
                "layer", "calls", "total_s", "self_s", "self%");
  r->span_table.emplace_back(buf);
  for (const auto& [name, s] : rows) {
    std::snprintf(buf, sizeof(buf), "%-22s %-7s %9lld %11.4f %11.4f %7.2f%%",
                  name.c_str(), s.cat.c_str(),
                  static_cast<long long>(s.calls), s.total_s, s.self_s,
                  busy > 0 ? 100.0 * s.self_s / busy : 0.0);
    r->span_table.emplace_back(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "busy %.4f s in root spans; unattributed remainder %.2f%%",
                busy, busy > 0 ? 100.0 * unattributed / busy : 0);
  r->span_table.emplace_back(buf);
}

// ----------------------------------------------------------------- output

std::string host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  Json host = Json::object();
  host.set("cpu", cpu);
  host.set("nproc", hardware_threads());
  host.set("simd", lsml::core::simd::to_string(
                       lsml::core::simd::active_backend()));
#if defined(__clang__)
  host.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.set("compiler", std::string("gcc ") + __VERSION__);
#else
  host.set("compiler", "unknown");
#endif
  host.set("build_type", LSMLBENCH_BUILD_TYPE);
  return host.dump();
}

void print_report(const Report& r, const Args& args) {
  std::printf("lsmlbench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              r.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.size.c_str());
  std::printf("host: %s\n", host_fingerprint().c_str());
  for (const std::string& note : r.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("\n%-34s %14s  %s\n", "metric", "value", "unit");
  for (const auto& [name, vu] : r.named) {
    std::printf("%-34s %14.6g  %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("\noperations (attempted / failed):\n");
  for (const auto& [kind, c] : r.ops) {
    std::printf("  %-20s %8lld / %lld\n", kind.c_str(),
                static_cast<long long>(c.attempted),
                static_cast<long long>(c.failed));
  }
  if (!r.span_table.empty()) {
    std::printf("\nper-layer self times (traced run):\n");
    for (const std::string& line : r.span_table) {
      std::printf("  %s\n", line.c_str());
    }
  }
  for (const std::string& f : r.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("\n");

  Json metrics = Json::object();
  const auto& specs = args.trace ? kPerLayer : kEndToEnd;
  const auto& values = args.trace ? r.layer : r.e2e;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      v = 0.0;
    }
    Json m = Json::object();
    m.set("value", v);
    m.set("unit", spec.unit);
    metrics.set(spec.name, std::move(m));
  }
  Json out = Json::object();
  out.set("correct", r.correct());
  out.set("attempted", r.attempted());
  out.set("failed", r.failed());
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ filesystem

std::string fresh_dir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path);
  return path;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace lsmlbench
