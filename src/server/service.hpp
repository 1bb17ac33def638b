#pragma once
// The learning-as-a-service request handler behind `lsml serve`.
//
// A Service is the transport-agnostic core of the daemon: it maps one
// request line (newline-delimited JSON, see README "Serving") to one
// response line, reusing every layer built so far —
//
//   learn  PLA payload -> learn::LearnerFactory -> TrainedModel, optimized
//          through the installed synth::OptRequest (and SAT-verified when
//          the request's SynthOptions say so)
//   eval   model id + minterm rows -> packed-simulation outputs. One
//          request may carry many row batches ("batches"); they all ride
//          one SimEngine sweep. Concurrent evals against the same model
//          coalesce into shared sweeps (see "Batching" below).
//   synth  AIGER text + script string -> optimized AIGER + pass trace;
//          script "auto" runs the per-circuit synth::ScriptSearch and the
//          response names the winner (script + script_fp)
//   cec    two AIGER payloads -> verdict + counterexample cube
//   ping   liveness (optional server-side sleep, for load/deadline tests)
//   stats  service counters (the one intentionally non-deterministic reply)
//
// Batching: every eval bottoms out in one aig::SimEngine sweep no matter
// how many row batches the request carries, and when several requests for
// the same model id are in flight at once, one of them (the leader) sweeps
// while the rest enqueue; the leader then serves each round of enqueued
// requests with one combined sweep, scattering per-request outputs back.
// Outputs are computed from each request's own rows, so coalescing never
// changes a single response byte — it only changes how many sweeps ran,
// observable as `eval_sweeps` / `eval_coalesced` in `stats`.
//
// Model store: learned circuits live in a sharded LRU keyed by a content
// hash over (datasets, learner, seed, request fingerprint) — the same
// Dataset::content_hash / task_content_hash machinery that keys the
// contest's on-disk suite::ResultCache. Shards are selected by model-id
// hash, each with its own mutex + recency list, so concurrent learns and
// evals on different models never contend on one lock; eviction follows a
// global LRU order (a logical access clock) under a global entry capacity
// and optional byte budget. The ResultCache doubles as the store's second
// level when `cache_dir` is set: a restarted server serves `learn` and
// `eval` requests for already-learned models without refitting.
//
// Determinism contract: every response except `stats` is a pure function
// of the request (given a fixed installed OptRequest and experience
// snapshot), with no wall times or
// cache-hit markers in the body — so N concurrent clients replaying a
// request set get byte-identical lines to a serial replay. Hit counts are
// observable through `stats` instead.
//
// Thread safety: handle_line is safe to call from any number of threads
// (the store shards, the eval coalescer, and the counters are internally
// synchronized; the synth memo and learner stack are already thread-safe).
// Install the process synth::OptRequest (synth::set_default_opt_request)
// BEFORE constructing a Service: the constructor snapshots the installed
// optimizer for model-id fingerprints and synth dispatch, and learners
// read it concurrently afterwards.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "core/bits.hpp"
#include "core/thread_pool.hpp"
#include "obs/registry.hpp"
#include "server/json.hpp"
#include "suite/result_cache.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script_search.hpp"

namespace lsml::server {

struct ServiceOptions {
  /// Global entry capacity of the in-memory model store (0 disables it).
  std::size_t model_capacity = 64;
  /// Global byte budget of the in-memory model store (0 = entries only).
  std::size_t model_store_bytes = 0;
  /// Store shard count (rounded up to a power of two).
  std::size_t store_shards = 8;
  /// On-disk second level (a suite::ResultCache); empty disables it.
  std::string cache_dir;
  /// Contest seed used when a learn request does not send one.
  std::uint64_t default_seed = 2020;
  /// Default total SAT conflict budget of a cec request, sweep plus final
  /// solve (0 = unlimited).
  std::int64_t cec_conflict_budget = 100000;
  /// Row cap of one eval request, summed over its batches.
  std::size_t max_eval_rows = 1u << 20;
  /// Cap on ping's optional server-side sleep.
  std::int64_t max_ping_sleep_ms = 60000;
  /// Width of the Service-owned sweep pool for wide evals (0 = off, sweeps
  /// stay on the request thread). Deliberately a *separate* pool from the
  /// transport's workers: SimEngine::run_parallel blocks its caller, so
  /// sweeping on the pool the caller occupies could starve the daemon.
  std::size_t sim_threads = 0;
  /// Rows one sweep must reach (summed over coalesced jobs) before it is
  /// partitioned across the sweep pool; narrower sweeps run serially.
  /// Results are bit-identical either way.
  std::size_t sim_parallel_min_rows = 4096;
};

/// Per-request deadline: a budget in milliseconds counted from the moment
/// the transport finished reading the request line (so time spent queued
/// behind busy workers counts). budget_ms == 0 means "no deadline".
struct Deadline {
  std::chrono::steady_clock::time_point received_at{};
  std::int64_t budget_ms = 0;

  [[nodiscard]] bool active() const { return budget_ms > 0; }
  [[nodiscard]] std::int64_t elapsed_ms() const;
  /// Remaining budget, clamped at 0; meaningless unless active().
  [[nodiscard]] std::int64_t remaining_ms() const;
  [[nodiscard]] bool expired() const { return active() && remaining_ms() <= 0; }
};

/// Monotonic counters; every field is updated atomically and readable at
/// any time (the `stats` request serializes them). The fields are
/// obs::Counter (a striped drop-in for std::atomic<std::uint64_t>), and
/// every Service registers them into the process obs::Registry under
/// lsml_server_* names for the `metrics` op — the same cells back both
/// views, so `stats` and `metrics` can never disagree.
struct ServiceStats {
  obs::Counter requests;
  obs::Counter errors;  ///< ok:false responses
  obs::Counter learns;  ///< learn requests that refit
  obs::Counter model_memory_hits;
  obs::Counter model_disk_hits;
  /// Requests that waited on a concurrent identical learn instead of
  /// refitting (single-flight).
  obs::Counter model_inflight_joins;
  obs::Counter model_evictions;
  obs::Counter evals;
  /// SimEngine sweeps actually run for eval requests; under a same-model
  /// storm this stays well below `evals` (the coalescing headline).
  obs::Counter eval_sweeps;
  /// Eval requests whose rows rode another request's sweep.
  obs::Counter eval_coalesced;
  obs::Counter eval_rows;
  obs::Counter synths;
  obs::Counter cecs;
  obs::Counter pings;
  obs::Counter deadline_expired;
};

/// A learned circuit as the store keeps it (immutable once published).
struct StoredModel {
  aig::Aig circuit{0};
  std::string learner;
  std::string method;
  double train_acc = 0.0;
  double valid_acc = 0.0;
  synth::VerifyStatus verified = synth::VerifyStatus::kNotRequested;
};

class Service {
 public:
  /// Request ops with per-op latency histograms; order matches the
  /// kOpNames table in service.cpp.
  static constexpr std::size_t kNumOps = 7;

  explicit Service(ServiceOptions options = {});

  /// Handles one request line; never throws. The returned response line
  /// carries no trailing newline. `received_at` stamps the deadline clock;
  /// the overload without it uses "now" (stdio mode, tests).
  [[nodiscard]] std::string handle_line(
      const std::string& line, std::chrono::steady_clock::time_point
                                   received_at);
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// NDJSON loop over streams — the `lsml serve --stdio` transport and the
  /// easiest test harness. Empty lines are skipped; lines longer than
  /// `max_request_bytes` are answered with an error (and not parsed).
  /// Returns the number of requests answered.
  std::uint64_t serve_stream(std::istream& in, std::ostream& out,
                             std::size_t max_request_bytes);

  [[nodiscard]] const ServiceStats& stats() const { return stats_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  /// The optimizer snapshot taken at construction (what learn requests run
  /// under, what model ids fingerprint, and what synth "auto" searches
  /// with).
  [[nodiscard]] const synth::OptRequest& opt_request() const {
    return optimizer_->request();
  }

  /// In-memory model count across all shards (tests assert LRU eviction
  /// through this).
  [[nodiscard]] std::size_t models_cached() const;
  /// Approximate resident bytes of the in-memory store.
  [[nodiscard]] std::size_t models_cached_bytes() const {
    return store_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// One independently locked slice of the model store.
  struct StoreShard {
    struct Entry {
      std::list<std::string>::iterator lru_it;
      std::shared_ptr<const StoredModel> model;
      std::size_t bytes = 0;
      std::uint64_t stamp = 0;  ///< global logical access clock
    };
    mutable std::mutex mutex;
    std::list<std::string> lru;  ///< front = most recent within the shard
    std::unordered_map<std::string, Entry> map;
  };

  /// One eval request's rows, parsed into PI columns; the coalescer fills
  /// `outputs` (one BitVec per circuit output over this job's rows).
  struct EvalJob {
    std::size_t rows = 0;
    std::vector<core::BitVec> columns;
    std::vector<core::BitVec> outputs;
    bool done = false;
  };

  /// Single-flight state for one model id's in-flight eval sweeps.
  struct EvalFlight {
    bool running = false;
    std::vector<std::shared_ptr<EvalJob>> waiting;
    std::condition_variable cv;
  };

  Json dispatch(const Json& request, const Deadline& deadline);
  Json handle_learn(const Json& request, const Deadline& deadline);
  Json handle_eval(const Json& request);
  Json handle_synth(const Json& request, const Deadline& deadline);
  Json handle_cec(const Json& request, const Deadline& deadline);
  Json handle_ping(const Json& request, const Deadline& deadline);
  Json handle_stats();
  Json handle_metrics(const Json& request);
  /// Registers stats_ and the latency histograms into the process
  /// obs::Registry (constructor helper).
  void register_metrics();

  /// Runs `job` through the per-model coalescer; on return job->outputs
  /// is filled.
  void run_eval_job(const std::string& id, const StoredModel& model,
                    const std::shared_ptr<EvalJob>& job);
  /// One combined SimEngine sweep over every job in `batch`.
  void sweep_jobs(const StoredModel& model,
                  const std::vector<std::shared_ptr<EvalJob>>& batch);

  [[nodiscard]] StoreShard& shard_for(const std::string& id);
  /// LRU lookup (bumps recency); nullptr on miss.
  std::shared_ptr<const StoredModel> store_get(const std::string& id);
  void store_put(const std::string& id, std::shared_ptr<const StoredModel> m);
  /// Evicts globally-least-recent entries until capacity/byte budget hold.
  void store_evict_to_budget();
  /// Second-level lookup in the on-disk ResultCache; fills the LRU on hit.
  std::shared_ptr<const StoredModel> disk_get(const std::string& id,
                                              std::uint64_t content_hash);
  void disk_put(const std::string& id, std::uint64_t content_hash,
                const StoredModel& model,
                const std::vector<synth::PassStats>& trace);

  ServiceOptions options_;
  std::shared_ptr<const synth::ScriptSearch> optimizer_;
  suite::ResultCache disk_cache_;
  ServiceStats stats_;

  /// Single-flight table: model ids whose first learn is still running.
  /// Concurrent identical learns wait on the leader's future instead of
  /// refitting (the store alone cannot prevent N cold-start duplicates).
  std::mutex inflight_mutex_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const StoredModel>>>
      inflight_;

  /// Eval coalescer: guards the flight table and every flight's state.
  /// Critical sections are O(1) pointer shuffling; sweeps run outside.
  std::mutex eval_mutex_;
  std::unordered_map<std::string, std::shared_ptr<EvalFlight>> eval_flights_;

  /// Column-parallel sweep pool (see ServiceOptions::sim_threads).
  std::unique_ptr<core::ThreadPool> sim_pool_;

  std::vector<std::unique_ptr<StoreShard>> shards_;
  std::size_t shard_mask_ = 0;
  std::atomic<std::uint64_t> store_clock_{0};
  std::atomic<std::size_t> store_entries_{0};
  std::atomic<std::size_t> store_bytes_{0};

  /// Telemetry side-channel: queue-wait and per-op latency histograms.
  obs::Histogram queue_wait_us_;
  std::array<obs::Histogram, kNumOps> op_us_;
  /// Registry aliases for stats_ and the histograms above. Must stay the
  /// LAST members: destruction runs in reverse declaration order, so the
  /// registrations (which point into this object) leave the registry
  /// before anything they reference is torn down.
  std::vector<obs::Registry::Registration> metric_regs_;
};

/// "m-<hex16>" spelling of a model content hash (and its inverse; false
/// when `id` is not a well-formed model id).
std::string model_id_from_hash(std::uint64_t hash);
bool model_hash_from_id(const std::string& id, std::uint64_t* hash);

}  // namespace lsml::server
