#pragma once
// lsmlbench: one program, three workloads, measured through liblsml's
// public API from outside (no instrumentation under src/).
//
//   contest    `lsml run` at smoke grids over a seeded draw of generated
//              contest benchmarks (suite::run_suite_dir), cold then warm
//   synth_cec  per-circuit `lsml synth resyn2fs --verify` + `lsml cec`
//              latency on a seeded corpus (PassManager::run, sat::cec)
//   serve      an in-process server::Server driven open-loop over loopback
//
// Every workload fills the same end-to-end metrics (kEndToEnd; what each
// means per workload is in README.md) and the same per-layer names
// (kPerLayer). With --trace 0 the last stdout line carries the end-to-end
// slots, with --trace 1 the per-layer metrics; both lists must match
// ../BENCHMARK.json (pinned by the benchmark's tests).

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace lsmlbench {

using Clock = std::chrono::steady_clock;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// serve: the eval latency limit of quality_pct and of the rate ladder;
/// BENCHMARK.json's serve workload states it too (pinned by a test).
inline constexpr double kLatencyLimitMs = 50.0;

/// End-to-end slots, in BENCHMARK.json order.
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics, in BENCHMARK.json order.
extern const std::vector<MetricSpec> kPerLayer;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// "full" is the benchmark; "tiny" is the seconds-long configuration the
  /// tests run.
  std::string size = "full";
  /// Scratch root; every workload works in a fresh subdirectory of it and
  /// removes it before returning.
  std::string work_dir = ".bench_build/work";
};

/// Attempted/failed counts of one kind of operation.
struct OpCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Everything one workload run measured and checked.
struct Report {
  std::string workload;
  /// Workload-specific metrics under their own names (contest.wall_s,
  /// serve.eval_p99_ms, ...): value and unit, printed as a table.
  std::map<std::string, std::pair<double, std::string>> named;
  /// The kEndToEnd slots.
  std::map<std::string, double> e2e;
  /// The kPerLayer metrics; names a workload does not exercise stay 0.
  std::map<std::string, double> layer;
  std::map<std::string, OpCount> ops;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;
  /// Traced runs: the self-time table, one preformatted line each.
  std::vector<std::string> span_table;

  void set(const std::string& name, double value, const std::string& unit) {
    named[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
  OpCount& op(const std::string& kind) { return ops[kind]; }
  [[nodiscard]] std::int64_t attempted() const;
  [[nodiscard]] std::int64_t failed() const;
  [[nodiscard]] bool correct() const { return check_failures.empty(); }
};

Report run_contest(const Args& args);
Report run_synth_cec(const Args& args);
Report run_serve(const Args& args);

// ------------------------------------------------------------- statistics

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& v);
/// The highest of p99/p95/p90/p75/p50 that still has at least ten samples
/// beyond it among `n`; 0.5 when n is small.
double tail_level(std::size_t n);
/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double>& v);

double seconds_since(Clock::time_point t0);
/// User + system CPU seconds of this process.
double process_cpu_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// Runs `units` timed units, after one untimed one that warms the caches,
/// of a fixed reference computation that no lsml code shares (bit-parallel
/// simulation of a constant random AND graph plus structural-hash lookups
/// over it, ~1 MB of data) and returns the calling thread's CPU
/// milliseconds per unit. A shared host's speed drifts by more than a
/// regression bound from one minute to the next; dividing a workload's CPU
/// by this, timed beside it, leaves the program's own cost. With `threads`
/// > 1 every one of that many threads runs the units at once, so the
/// figure samples every core a multi-threaded workload may use; the result
/// is their mean. Call it from one thread at a time.
double reference_unit_ms(int units, int threads = 1);
/// Peak resident set size of this process, MiB.
double peak_rss_mb();
int hardware_threads();

// --------------------------------------------------------- registry deltas

/// A point-in-time copy of every series in obs::Registry, read through the
/// Prometheus exposition (counters, gauges, histogram _sum/_count).
class RegistrySnapshot {
 public:
  static RegistrySnapshot take();
  [[nodiscard]] double get(const std::string& series) const;
  /// this - before, per series.
  [[nodiscard]] RegistrySnapshot minus(const RegistrySnapshot& before) const;
  /// Sum over series `<family>{<label>="..."}` grouped by the label value's
  /// first word (pass "rw -k 6" -> "rw").
  [[nodiscard]] std::map<std::string, double> by_label(
      const std::string& family, const std::string& suffix) const;

 private:
  std::map<std::string, double> series_;
};

/// Quantile of the samples a registry histogram gained between two
/// histogram_snapshot() reads (log2 buckets, interpolated).
double histogram_delta_quantile(const std::string& name, double q,
                                const std::vector<std::uint64_t>& before);
/// Bucket counts of a registry histogram now (for the `before` argument).
std::vector<std::uint64_t> histogram_buckets(const std::string& name);

/// Fills the per-layer metrics every workload derives the same way from a
/// registry delta (synth passes, memo, sim, sat counters).
void fill_registry_layers(const RegistrySnapshot& delta, Report* report);

// ---------------------------------------------------------------- tracing

/// Per span name: call count, total and self time (a span minus the part
/// of it its children on the same thread cover), in seconds.
struct SpanStat {
  std::string cat;
  std::int64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Spans recorded by obs::Tracer, from its Chrome-trace export.
std::map<std::string, SpanStat> collect_span_stats();
/// Self-time table rows and the per-layer trace metrics: self time per
/// category and the unattributed remainder, as shares of the time spent
/// in the `roots` spans.
void fill_trace_layers(const std::map<std::string, SpanStat>& spans,
                       const std::set<std::string>& roots, Report* report);

void tracer_on();
void tracer_off();

/// Runs `fn` with obs::Tracer enabled and a fresh span buffer; leaves the
/// tracer disabled and returns the spans it recorded.
template <typename Fn>
std::map<std::string, SpanStat> traced(Fn&& fn) {
  tracer_on();
  fn();
  std::map<std::string, SpanStat> spans = collect_span_stats();
  tracer_off();
  return spans;
}

/// RAII span of the benchmark's own (category "bench") around a call into
/// one layer; free when tracing is off.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  Clock::time_point start_{};
};

// ----------------------------------------------------------------- output

/// Host fingerprint: CPU model, nproc, SIMD backend, compiler, build type.
std::string host_fingerprint();
/// Prints the human-readable report and, as the last line, the result
/// object with the e2e slots (trace off) or per-layer metrics (trace on).
void print_report(const Report& report, const Args& args);

// ------------------------------------------------------------ filesystem

/// Creates (after removing) a scratch directory and returns its path.
std::string fresh_dir(const std::string& path);
void remove_tree(const std::string& path);
std::string read_file(const std::string& path);

}  // namespace lsmlbench
