// serve: an in-process server::Server (default ServiceOptions) on
// loopback, driven by a single-threaded open-loop generator. Requests are
// sent on a seeded Poisson schedule whatever the server does, and each is
// timed from its scheduled send time, so a stall shows in every request
// queued behind it. The server pool plus the generator stay within nproc
// threads and connections.
//
// Set-up learns three models of ~100, ~600 and ~5000 ANDs through the
// `learn` op. Traffic is mostly `eval` at 256 and 4096 rows, spread evenly
// over them, plus a minority of heavy ops sharing the same pool: `learn` on
// fresh datasets, `synth` and `cec`. The proportions of the mix and the
// offered rate are assumptions, not taken from any recorded traffic.
// Phases: a fixed offered rate (eval p50/p99, heavy p50), then a rate
// ladder for the highest rate whose eval p99 meets kLatencyLimitMs with no
// growing backlog.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "aig/aig_io.hpp"
#include "aig/aig_random.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "core/rng.hpp"
#include "oracle/suite.hpp"
#include "pla/pla.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/server.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script.hpp"

namespace lsmlbench {

namespace {

using namespace lsml;
using server::Json;

enum class Kind { kEval, kLearn, kSynth, kCec };
const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kEval:
      return "eval";
    case Kind::kLearn:
      return "learn";
    case Kind::kSynth:
      return "synth";
    case Kind::kCec:
      return "cec";
  }
  return "?";
}

struct Config {
  /// (benchmark id, learner) of the three served models.
  std::vector<std::pair<int, std::string>> models;
  std::size_t model_rows = 0;
  std::size_t heavy_rows = 0;   ///< rows of a fresh learn dataset
  std::uint32_t heavy_ands = 0; ///< size of synth/cec payload cones
  int payloads = 0;        ///< distinct eval payloads per model
  int heavy_payloads = 0;  ///< distinct heavy payloads, all kinds
  double fixed_rps = 0.0;
  double heavy_frac = 0.0;
};

Config config_for(const Args& args) {
  Config c;
  if (args.size == "tiny") {
    c.models = {{60, "dt"}, {80, "dt"}, {55, "dt"}};
    c.model_rows = 300;
    c.heavy_rows = 100;
    c.heavy_ands = 150;
    c.payloads = 4;
    c.heavy_payloads = 6;
    c.fixed_rps = 50;
    c.heavy_frac = 0.3;  // a one-second run still sees every heavy op
  } else {
    c.models = {{60, "dt"}, {51, "dt"}, {55, "rf"}};
    c.model_rows = 2000;
    c.heavy_rows = 300;
    c.heavy_ands = 400;
    c.payloads = 16;
    c.heavy_payloads = 192;
    c.fixed_rps = 150;
    c.heavy_frac = 0.03;
  }
  return c;
}

struct Model {
  std::string id;
  std::uint32_t inputs = 0;
  double train_acc = 0.0;
  std::int64_t ands = 0;
  data::Dataset train;
};

/// A heavy request with what its response must say.
struct Payload {
  Kind kind = Kind::kEval;
  /// cec: the known answer and the two circuits for counterexample replay.
  bool known_equal = false;
  aig::Aig a{0};
  aig::Aig b{0};
};

std::string pla_text(const data::Dataset& ds) {
  std::ostringstream os;
  pla::write_pla(pla::Pla::from_dataset(ds), os);
  return os.str();
}

std::string aag_text(const aig::Aig& g) {
  std::ostringstream os;
  aig::write_aag(g, os);
  return os.str();
}

std::string eval_line(const std::string& model, std::size_t inputs,
                      std::size_t rows, core::Rng& rng) {
  Json req = Json::object();
  req.set("type", "eval");
  req.set("model", model);
  Json in = Json::array();
  for (std::size_t r = 0; r < rows; ++r) {
    std::string bits(inputs, '0');
    for (char& ch : bits) {
      ch = rng.flip(0.5) ? '1' : '0';
    }
    in.push_back(std::move(bits));
  }
  req.set("inputs", std::move(in));
  return req.dump();
}

/// Prefixes `line` (a JSON object) with an id member.
std::string with_id(std::int64_t id, const std::string& line) {
  return "{\"id\":" + std::to_string(id) + "," + line.substr(1) + "\n";
}

// ----------------------------------------------- open-loop load generator

struct Sent {
  std::int64_t id;
  std::size_t payload;  ///< index into the request table
  Clock::time_point due;
};

struct Outcome {
  Kind kind;
  double latency_ms;  ///< response time minus scheduled send time
  double done_s;      ///< response time, seconds since the phase start
  bool ok;
};

/// One phase's result: per-request outcomes plus generator lateness.
struct PhaseResult {
  std::vector<Outcome> outcomes;
  std::vector<double> lateness_ms;
  double cpu_s = 0.0;  ///< process CPU minus the generator thread's
  /// Per segment of a segmented phase: CPU ms per answered request.
  std::vector<double> segment_cpu_ms;
  /// Per segment: the reference computation's CPU ms per unit, timed just
  /// before and just after it (mean of the two), and the segment's CPU per
  /// request in those units.
  std::vector<double> segment_unit_ms;
  std::vector<double> segment_ref_per_op;

  void append(const PhaseResult& p) {
    outcomes.insert(outcomes.end(), p.outcomes.begin(), p.outcomes.end());
    lateness_ms.insert(lateness_ms.end(), p.lateness_ms.begin(),
                       p.lateness_ms.end());
    cpu_s += p.cpu_s;
    std::size_t ok = 0;
    for (const Outcome& o : p.outcomes) {
      ok += o.ok ? 1 : 0;
    }
    segment_cpu_ms.push_back(ok > 0 ? p.cpu_s * 1e3 / static_cast<double>(ok)
                                    : 0.0);
  }

  /// Requests answered later than `t` seconds after the phase start.
  [[nodiscard]] std::size_t answered_after(double t) const {
    std::size_t n = 0;
    for (const Outcome& o : outcomes) {
      n += o.done_s > t ? 1 : 0;
    }
    return n;
  }
  [[nodiscard]] bool all_ok() const {
    for (const Outcome& o : outcomes) {
      if (!o.ok) {
        return false;
      }
    }
    return true;
  }
};

/// The open-loop client: one thread, nonblocking sockets, poll(). The
/// first connection carries the heavy ops, the others the evals (each to
/// the one with the fewest requests in flight), so an eval never queues
/// behind a fit on its own connection, only for the server's workers.
class Generator {
 public:
  Generator(int port, int eval_conns) {
    for (int i = 0; i < eval_conns + 1; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        throw std::runtime_error("socket failed");
      }
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        ::close(fd);
        throw std::runtime_error(std::string("connect failed: ") +
                                 std::strerror(errno));
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      Conn conn;
      conn.fd = fd;
      conns_.push_back(std::move(conn));
    }
  }
  ~Generator() {
    for (Conn& c : conns_) {
      ::close(c.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Sends request `schedule[i]` (an index into `bodies`) at `offsets_s[i]`
  /// seconds from now, whatever the server does, and returns once every
  /// request is answered. `record_lines` keeps every response line;
  /// `heavy_out` the heavy-op responses with their payload index. The
  /// phase's CPU leaves out this (the calling) thread, so it is the
  /// server's alone.
  PhaseResult run(const std::vector<std::size_t>& schedule,
                  const std::vector<double>& offsets_s,
                  const std::vector<std::string>& bodies,
                  const std::vector<Kind>& kinds,
                  std::vector<std::string>* record_lines,
                  std::vector<std::pair<std::size_t, std::string>>* heavy_out) {
    PhaseResult res;
    const double cpu0 = process_cpu_s() - thread_cpu_s();
    const auto start = Clock::now();
    const auto at = [&](double s) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s));
    };
    // A server that leaves a request unanswered this long is broken.
    const auto give_up =
        at((offsets_s.empty() ? 0.0 : offsets_s.back()) + 60.0);
    std::size_t next = 0;
    std::size_t outstanding = 0;
    std::vector<pollfd> pfds(conns_.size());
    while (next < schedule.size() || outstanding > 0) {
      const auto now = Clock::now();
      if (now > give_up) {
        throw std::runtime_error("server left requests unanswered for 60 s");
      }
      while (next < schedule.size() && at(offsets_s[next]) <= now) {
        const auto due = at(offsets_s[next]);
        res.lateness_ms.push_back(
            std::chrono::duration<double, std::milli>(now - due).count());
        Conn* conn = &conns_[0];
        if (kinds[schedule[next]] == Kind::kEval) {
          conn = &conns_[1];
          for (std::size_t i = 2; i < conns_.size(); ++i) {
            if (conns_[i].inflight.size() < conn->inflight.size()) {
              conn = &conns_[i];
            }
          }
        }
        const std::int64_t id = next_id_++;
        conn->out += with_id(id, bodies[schedule[next]]);
        conn->inflight.push_back({id, schedule[next], due});
        flush(*conn);
        ++outstanding;
        ++next;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        const bool pending = conns_[i].out.size() > conns_[i].out_off;
        pfds[i] = {conns_[i].fd,
                   static_cast<short>(POLLIN | (pending ? POLLOUT : 0)), 0};
      }
      // Sleep until the next send is due (to the nanosecond, so the wait
      // never turns into a spin), a response arrives, or 50 ms pass.
      std::chrono::nanoseconds wait = std::chrono::milliseconds(50);
      if (next < schedule.size()) {
        wait = std::clamp(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              at(offsets_s[next]) - now),
                          std::chrono::nanoseconds(0), wait);
      }
      const timespec timeout{
          static_cast<std::time_t>(wait.count() / 1'000'000'000),
          static_cast<long>(wait.count() % 1'000'000'000)};
      const int n = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
      if (n < 0 && errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      for (std::size_t i = 0; i < conns_.size() && n > 0; ++i) {
        Conn& c = conns_[i];
        if ((pfds[i].revents & POLLOUT) != 0) {
          flush(c);
        }
        if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
          continue;
        }
        receive(c);
        const auto recv_time = Clock::now();
        std::size_t pos = 0;
        std::size_t nl = 0;
        while ((nl = c.in.find('\n', pos)) != std::string::npos) {
          if (c.inflight.empty()) {
            throw std::runtime_error("response without a request");
          }
          const Sent s = c.inflight.front();
          c.inflight.pop_front();
          --outstanding;
          const std::string_view line(c.in.data() + pos, nl - pos);
          const std::string id_prefix =
              "{\"id\":" + std::to_string(s.id) + ",";
          const bool ok = line.substr(0, id_prefix.size()) == id_prefix &&
                          line.find("\"ok\":true", id_prefix.size()) ==
                              id_prefix.size();
          res.outcomes.push_back(
              {kinds[s.payload],
               std::chrono::duration<double, std::milli>(recv_time - s.due)
                   .count(),
               std::chrono::duration<double>(recv_time - start).count(), ok});
          if (record_lines != nullptr) {
            record_lines->emplace_back(line);
          }
          if (heavy_out != nullptr && kinds[s.payload] != Kind::kEval) {
            heavy_out->emplace_back(s.payload, std::string(line));
          }
          pos = nl + 1;
        }
        c.in.erase(0, pos);
      }
    }
    res.cpu_s = process_cpu_s() - thread_cpu_s() - cpu0;
    return res;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<Sent> inflight;
  };

  static void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  static void receive(Conn& c) {
    char buf[1 << 16];
    while (true) {
      const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
      if (got > 0) {
        c.in.append(buf, static_cast<std::size_t>(got));
      } else if (got == 0) {
        throw std::runtime_error("server closed a connection");
      } else if (errno != EINTR) {
        return;  // EAGAIN: nothing more for now
      }
    }
  }

  std::vector<Conn> conns_;
  std::int64_t next_id_ = 1;
};

/// What each request in turn carries, as an index into the request table
/// (evals first, then heavies). Exactly every 1/heavy_frac-th request is
/// heavy, rotating through the heavy payloads so a repeat (a model-store or
/// memo hit) only comes after every other one was sent; evals cycle
/// through a seeded shuffle of the eval payloads. Every run thus sends the
/// mix in the same proportions and only the arrival times are random.
class Mix {
 public:
  Mix(std::size_t evals, std::size_t heavies, double heavy_frac,
      core::Rng& rng)
      : order_(evals), evals_(evals), heavies_(heavies), frac_(heavy_frac) {
    for (std::size_t i = 0; i < evals; ++i) {
      order_[i] = i;
    }
    for (std::size_t i = evals; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.below(i)]);
    }
  }

  std::size_t next() {
    const double i = static_cast<double>(sent_++);
    if (heavies_ > 0 &&
        std::floor((i + 1) * frac_) > std::floor(i * frac_)) {
      return evals_ + heavy_next_++ % heavies_;
    }
    return order_[eval_next_++ % evals_];
  }

 private:
  std::vector<std::size_t> order_;
  std::size_t evals_;
  std::size_t heavies_;
  double frac_;
  std::size_t sent_ = 0;
  std::size_t eval_next_ = 0;
  std::size_t heavy_next_ = 0;
};

/// Poisson arrivals at `rps` for `seconds` or until there are
/// `max_requests`, each carrying `mix.next()`.
void make_schedule(double rps, double seconds, std::size_t max_requests,
                   Mix& mix, core::Rng& rng,
                   std::vector<std::size_t>* schedule,
                   std::vector<double>* offsets) {
  schedule->clear();
  offsets->clear();
  double t = 0.0;
  while (offsets->size() < max_requests) {
    t += -std::log(1.0 - rng.uniform()) / rps;
    if (t >= seconds) {
      break;
    }
    offsets->push_back(t);
    schedule->push_back(mix.next());
  }
}

std::vector<double> latencies(const PhaseResult& p, bool heavy) {
  std::vector<double> v;
  for (const Outcome& o : p.outcomes) {
    if ((o.kind != Kind::kEval) == heavy) {
      v.push_back(o.latency_ms);
    }
  }
  return v;
}

}  // namespace

Report run_serve(const Args& args) {
  Report r;
  r.workload = "serve";
  const Config cfg = config_for(args);
  core::Rng rng(args.seed);
  const int nproc = hardware_threads();
  // Threads: the worker pool, the server's event loop and the generator
  // make nproc; one eval connection per worker plus the heavy connection.
  const int pool = std::max(1, nproc - 2);
  const int eval_conns = pool;

  // Datasets of the three served models.
  oracle::SuiteOptions so;
  so.rows_per_split = cfg.model_rows;
  so.seed = args.seed;
  std::vector<Model> models;
  std::vector<std::string> learn_lines;
  for (const auto& [id, learner] : cfg.models) {
    oracle::Benchmark b = oracle::make_benchmark(id, so);
    Json req = Json::object();
    req.set("type", "learn");
    req.set("learner", learner);
    req.set("pla", pla_text(b.train));
    req.set("valid_pla", pla_text(b.valid));
    learn_lines.push_back(req.dump());
    Model m;
    m.inputs = static_cast<std::uint32_t>(b.num_inputs);
    m.train = std::move(b.train);
    models.push_back(std::move(m));
  }

  // Set-up: server start plus the three initial learns, five times, each
  // cold (PassManager memo cleared); the median counts.
  const auto start_server = [&]() {
    synth::PassManager::clear_memo();
    server::ServerOptions so_srv;
    so_srv.num_threads = pool;
    auto s = std::make_unique<server::Server>(so_srv);
    s->start();
    server::Client client;
    client.connect("127.0.0.1", s->port());
    for (std::size_t m = 0; m < models.size(); ++m) {
      OpCount& op = r.op("setup_learn");
      ++op.attempted;
      const Json resp = Json::parse(client.roundtrip(learn_lines[m]));
      if (!resp.at("ok").as_bool()) {
        ++op.failed;
        throw std::runtime_error("set-up learn failed: " + resp.dump());
      }
      models[m].id = resp.at("model").as_string();
      models[m].train_acc = resp.at("train_acc").as_double();
      models[m].ands = resp.at("ands").as_int();
    }
    return s;
  };
  std::vector<double> setup_s;
  std::unique_ptr<server::Server> srv;
  for (int i = 0; i < 5; ++i) {
    if (srv) {
      srv->stop();
      srv.reset();
    }
    const auto t0 = Clock::now();
    srv = start_server();
    setup_s.push_back(seconds_since(t0));
  }

  // Every served model's eval of its own training rows must reproduce the
  // train_acc its learn reported.
  {
    server::Client client;
    client.connect("127.0.0.1", srv->port());
    for (const Model& m : models) {
      Json req = Json::object();
      req.set("type", "eval");
      req.set("model", m.id);
      Json in = Json::array();
      for (std::size_t row = 0; row < m.train.num_rows(); ++row) {
        std::string bits(m.train.num_inputs(), '0');
        for (std::size_t c = 0; c < bits.size(); ++c) {
          bits[c] = m.train.input(row, c) ? '1' : '0';
        }
        in.push_back(std::move(bits));
      }
      req.set("inputs", std::move(in));
      OpCount& op = r.op("check_eval");
      ++op.attempted;
      const Json resp = Json::parse(client.roundtrip(req.dump()));
      const bool ok = resp.at("ok").as_bool();
      const std::string why =
          ok ? check_eval_accuracy(resp.at("outputs").at(0).as_string(),
                                   m.train, m.train_acc)
             : "eval failed: " + resp.dump();
      op.failed += why.empty() ? 0 : 1;
      r.check(why.empty(), "model " + m.id + ": " + why);
    }
  }

  // Request table: eval payloads (256 and 4096 rows per model), then the
  // heavy payloads (fresh learns, synth, cec).
  std::vector<std::string> bodies;
  std::vector<Kind> kinds;
  std::vector<Payload> heavy;
  // Every model gets the same number of eval payloads, three in four of
  // 256 rows and one in four of 4096.
  for (int v = 0; v < cfg.payloads; ++v) {
    for (const Model& m : models) {
      const std::size_t rows = v % 4 == 3 ? 4096 : 256;
      bodies.push_back(eval_line(m.id, m.inputs, rows, rng));
      kinds.push_back(Kind::kEval);
    }
  }
  const std::size_t evals = bodies.size();
  double aag_bytes = 0.0;
  double aag_s = 0.0;
  for (int v = 0; v < cfg.heavy_payloads; ++v) {
    Payload p;
    // Heavy kinds rotate learn, synth x3, cec: synths get the most
    // samples because the gated `ands` is the mean over their answers.
    const int slot = v % 5;
    p.kind = slot == 0 ? Kind::kLearn : slot == 4 ? Kind::kCec : Kind::kSynth;
    Json req = Json::object();
    req.set("type", kind_name(p.kind));
    if (p.kind == Kind::kLearn) {
      oracle::SuiteOptions fresh;
      fresh.rows_per_split = cfg.heavy_rows;
      fresh.seed = args.seed * 1000 + static_cast<std::uint64_t>(v);
      const oracle::Benchmark b = oracle::make_benchmark(50 + v % 20, fresh);
      req.set("learner", "dt");
      req.set("pla", pla_text(b.train));
      req.set("valid_pla", pla_text(b.valid));
    } else {
      aig::ConeOptions o;
      o.num_inputs = 32;
      o.num_ands = cfg.heavy_ands;
      core::Rng cone_rng = rng.split(static_cast<std::uint64_t>(v), 11);
      p.a = aig::random_cone(o, cone_rng);
      const std::string a_text = aag_text(p.a);
      {
        const auto t0 = Clock::now();
        std::istringstream in(a_text);
        (void)aig::read_aag(in);
        aag_s += seconds_since(t0);
        aag_bytes += static_cast<double>(a_text.size());
      }
      if (p.kind == Kind::kSynth) {
        req.set("aag", a_text);
        req.set("script", "resyn2");
      } else {
        // cec payloads alternate: a circuit with its balanced (equivalent)
        // rewrite, then one with a copy whose output is complemented.
        p.known_equal = (v / 5) % 2 == 0;
        if (p.known_equal) {
          synth::SynthOptions b_opts;
          b_opts.node_budget = 0;
          b_opts.max_rounds = 1;
          p.b = synth::PassManager(b_opts)
                    .run(p.a, synth::Script::parse("b"))
                    .circuit;
        } else {
          p.b = p.a;
          p.b.set_output(0, aig::lit_not(p.b.output(0)));
        }
        req.set("a", a_text);
        req.set("b", aag_text(p.b));
      }
    }
    bodies.push_back(req.dump());
    kinds.push_back(p.kind);
    heavy.push_back(std::move(p));
  }
  const std::size_t heavies = heavy.size();

  Generator gen(srv->port(), eval_conns);
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const double fixed_s = args.trace ? window : 0.7 * window;

  // The fixed-rate phase runs as segments of kSegmentRequests requests (15
  // heavy ops, three of each heavy slot), each drained before the next.
  // cpu_per_op_ref is the median of the segments' CPU per request in
  // reference units, so a burst of noise from the host moves one segment,
  // not the result.
  constexpr std::size_t kSegmentRequests = 500;
  // Reference units timed before and after each segment, server idle, on
  // as many threads as the server and generator run: ~0.1 s each time.
  constexpr int kRefUnits = 200;
  const int ref_threads = pool + 2;
  const double never = std::numeric_limits<double>::infinity();
  const auto planned =
      static_cast<std::size_t>(std::llround(fixed_s * cfg.fixed_rps));
  const std::size_t segment_n =
      std::clamp<std::size_t>(planned, 1, kSegmentRequests);
  struct Segment {
    std::vector<std::size_t> schedule;
    std::vector<double> offsets;
  };
  std::vector<Segment> plan(std::max<std::size_t>(1, planned / segment_n));
  Mix mix(evals, heavies, cfg.heavy_frac, rng);
  for (Segment& seg : plan) {
    make_schedule(cfg.fixed_rps, never, segment_n, mix, rng, &seg.schedule,
                  &seg.offsets);
  }
  const auto run_plan = [&](Generator& g, std::vector<std::string>* lines,
                            std::vector<std::pair<std::size_t, std::string>>*
                                heavy_out) {
    PhaseResult all;
    for (const Segment& seg : plan) {
      const double unit0 = reference_unit_ms(kRefUnits, ref_threads);
      all.append(
          g.run(seg.schedule, seg.offsets, bodies, kinds, lines, heavy_out));
      const double unit_ms =
          (unit0 + reference_unit_ms(kRefUnits, ref_threads)) / 2;
      all.segment_unit_ms.push_back(unit_ms);
      all.segment_ref_per_op.push_back(all.segment_cpu_ms.back() / unit_ms);
    }
    return all;
  };
  std::vector<std::string> response_lines;
  std::vector<std::pair<std::size_t, std::string>> heavy_responses;
  const RegistrySnapshot before = RegistrySnapshot::take();
  std::map<std::string, std::vector<std::uint64_t>> hist_before;
  const std::vector<std::string> hists = {
      "lsml_server_op_us{op=\"eval\"}", "lsml_server_op_us{op=\"learn\"}",
      "lsml_server_op_us{op=\"synth\"}", "lsml_server_op_us{op=\"cec\"}",
      "lsml_server_queue_wait_us"};
  for (const std::string& h : hists) {
    hist_before[h] = histogram_buckets(h);
  }
  const auto phase_start = Clock::now();
  const PhaseResult fixed = run_plan(
      gen, args.trace ? &response_lines : nullptr, &heavy_responses);
  const RegistrySnapshot delta = RegistrySnapshot::take().minus(before);

  const auto count_ops = [&](const PhaseResult& p) {
    for (const Outcome& o : p.outcomes) {
      OpCount& op = r.op(kind_name(o.kind));
      ++op.attempted;
      op.failed += o.ok ? 0 : 1;
    }
  };
  count_ops(fixed);
  // cec verdicts against the known answers, counterexamples replayed.
  std::vector<std::string> cec_lines;
  for (const auto& [index, line] : heavy_responses) {
    const Payload& p = heavy[index - evals];
    if (p.kind != Kind::kCec) {
      continue;
    }
    cec_lines.push_back(line);
    const Json resp = Json::parse(line);
    if (!resp.at("ok").as_bool()) {
      continue;  // already counted as a failed cec
    }
    const std::string verdict = resp.at("verdict").as_string();
    const sat::CecStatus status =
        verdict == "equivalent"
            ? sat::CecStatus::kEquivalent
            : verdict == "not_equivalent" ? sat::CecStatus::kNotEquivalent
                                          : sat::CecStatus::kUndecided;
    std::vector<std::uint8_t> cex;
    std::size_t failing = 0;
    if (status == sat::CecStatus::kNotEquivalent) {
      for (const char ch : resp.at("counterexample").as_string()) {
        cex.push_back(ch == '1' ? 1 : 0);
      }
      failing = static_cast<std::size_t>(resp.at("failing_output").as_int());
    }
    const std::string why =
        check_cec(p.known_equal, status, cex, failing, p.a, p.b);
    r.check(why.empty(), "serve cec: " + why);
  }

  const std::vector<double> eval_ms = latencies(fixed, false);
  const std::vector<double> heavy_ms = latencies(fixed, true);
  const double eval_tail_q = tail_level(eval_ms.size());
  std::size_t answered = 0;
  for (const Outcome& o : fixed.outcomes) {
    answered += o.ok ? 1 : 0;
  }

  // Peak RSS through set-up and the fixed-rate phase, before the ladder,
  // whose climb (and the memory its backlog holds) depends on timing.
  const double rss_mb = peak_rss_mb();
  r.set("setup_s", median(setup_s), "s");
  r.set("peak_rss_mb", rss_mb, "MB");
  r.set("serve.offered_rps", cfg.fixed_rps, "1/s");
  r.set("serve.eval_p50_ms", median(eval_ms), "ms");
  r.set("serve.eval_p99_ms", quantile(eval_ms, 0.99), "ms");
  r.set("serve.eval_tail_level", eval_tail_q, "quantile");
  r.set("serve.eval_samples", static_cast<double>(eval_ms.size()), "count");
  r.set("serve.heavy_p50_ms", median(heavy_ms), "ms");
  r.set("serve.heavy_samples", static_cast<double>(heavy_ms.size()), "count");
  r.set("serve.generator_late_p99_ms", quantile(fixed.lateness_ms, 0.99), "ms");
  r.set("serve.generator_late_max_ms", quantile(fixed.lateness_ms, 1.0), "ms");
  for (const Model& m : models) {
    r.notes.push_back("model " + m.id + ": " + std::to_string(m.ands) +
                      " ANDs, " + std::to_string(m.inputs) + " inputs");
  }
  r.notes.push_back("pool " + std::to_string(pool) + " workers, " +
                    std::to_string(eval_conns) +
                    " eval connections + 1 heavy, 1 generator thread");

  std::vector<double> model_acc;
  std::vector<double> model_ands;
  for (const Model& m : models) {
    model_acc.push_back(m.train_acc);
    model_ands.push_back(static_cast<double>(m.ands));
  }
  r.e2e["setup_s"] = median(setup_s);
  r.e2e["peak_rss_mb"] = rss_mb;
  r.set("serve.cpu_ms_per_op_mean",
        answered > 0 ? fixed.cpu_s * 1e3 / static_cast<double>(answered) : 0,
        "ms");
  r.set("serve.cpu_ms_per_op", median(fixed.segment_cpu_ms), "ms");
  r.set("reference_unit_ms", median(fixed.segment_unit_ms), "ms");
  r.e2e["cpu_per_op_ref"] = median(fixed.segment_ref_per_op);
  std::ostringstream segs;
  segs << plan.size() << " fixed-rate segments of " << segment_n
       << " requests, CPU ms per request:";
  for (const double ms : fixed.segment_cpu_ms) {
    segs << ' ' << ms;
  }
  segs << "; reference unit ms:";
  for (const double ms : fixed.segment_unit_ms) {
    segs << ' ' << ms;
  }
  r.notes.push_back(segs.str());
  std::size_t in_limit = 0;
  for (const double ms : eval_ms) {
    in_limit += ms <= kLatencyLimitMs ? 1 : 0;
  }
  const double in_limit_pct =
      eval_ms.empty() ? 0.0 : 100.0 * in_limit / eval_ms.size();
  r.set("serve.eval_within_limit_pct", in_limit_pct, "%");
  r.set("serve.model_train_acc", mean(model_acc), "ratio");
  r.e2e["quality_pct"] = in_limit_pct;
  // ands: mean size of the circuits the synth op returned, over the
  // fixed-rate phase (dozens of cones, where three models would leave the
  // mean to the seed).
  std::vector<double> synth_ands;
  for (const auto& [index, line] : heavy_responses) {
    if (heavy[index - evals].kind == Kind::kSynth) {
      synth_ands.push_back(
          static_cast<double>(Json::parse(line).at("ands").as_int()));
    }
  }
  r.set("serve.model_ands", mean(model_ands), "count");
  r.set("serve.synth_ands", mean(synth_ands), "count");
  r.e2e["ands"] = mean(synth_ands);

  if (!args.trace) {
    // Rate ladder: x1.25 steps up from the fixed rate while a step keeps
    // eval p99 within kLatencyLimitMs, every request ok, and every request
    // answered within 0.25 s of the step's end (no growing backlog). The
    // highest passing rate is serve.max_rps.
    const double step_s = 2.0;
    double rate = cfg.fixed_rps;
    double max_rps = 0.0;
    std::vector<std::size_t> schedule;
    std::vector<double> offsets;
    while (seconds_since(phase_start) + 2 * step_s <= window) {
      make_schedule(rate, step_s, std::numeric_limits<std::size_t>::max(),
                    mix, rng, &schedule, &offsets);
      const PhaseResult step =
          gen.run(schedule, offsets, bodies, kinds, nullptr, nullptr);
      count_ops(step);
      const double p99 = quantile(latencies(step, false), 0.99);
      r.set("serve.ladder_p99_ms@" + std::to_string(static_cast<int>(rate)),
            p99, "ms");
      if (!step.all_ok() || p99 > kLatencyLimitMs ||
          step.answered_after(step_s + 0.25) > 0) {
        break;
      }
      max_rps = rate;
      rate *= 1.25;
    }
    r.set("serve.max_rps", max_rps, "1/s");
  }

  if (args.trace) {
    fill_registry_layers(delta, &r);
    const auto op_quantile = [&](const std::string& name, double q) {
      return histogram_delta_quantile(name, q, hist_before[name]);
    };
    r.layer["server.op_p50_us.eval"] = op_quantile(hists[0], 0.5);
    r.layer["server.op_p50_us.learn"] = op_quantile(hists[1], 0.5);
    r.layer["server.op_p50_us.synth"] = op_quantile(hists[2], 0.5);
    r.layer["server.op_p50_us.cec"] = op_quantile(hists[3], 0.5);
    r.layer["server.queue_wait_p50_us"] = op_quantile(hists[4], 0.5);
    r.layer["server.queue_wait_p99_us"] = op_quantile(hists[4], 0.99);
    r.layer["server.transport_p50_us"] =
        median(eval_ms) * 1e3 - r.layer["server.op_p50_us.eval"];
    const double evals_done = delta.get("lsml_server_evals_total");
    r.layer["server.eval_coalesced_frac"] =
        evals_done > 0
            ? delta.get("lsml_server_eval_coalesced_total") / evals_done
            : 0;
    const double requests = delta.get("lsml_server_requests_total");
    r.layer["server.loop_iters_per_req"] =
        requests > 0 ? delta.get("lsml_event_loop_iterations_total") / requests
                     : 0;
    r.layer["aig.read_aag_mb_per_s"] = aag_s > 0 ? aag_bytes / 1e6 / aag_s : 0;
    int undecided = 0;
    for (const std::string& line : cec_lines) {
      undecided += line.find("\"undecided\"") != std::string::npos ? 1 : 0;
    }
    r.layer["sat.undecided_frac"] =
        cec_lines.empty() ? 0.0
                          : static_cast<double>(undecided) / cec_lines.size();

    // JSON layer: parse and dump the recorded request and response lines.
    std::vector<std::string> lines(bodies.begin(), bodies.end());
    lines.insert(lines.end(), response_lines.begin(), response_lines.end());
    double bytes = 0.0;
    double dumped = 0.0;
    double parse_s = 0.0;
    double dump_s = 0.0;
    for (const std::string& line : lines) {
      const auto t0 = Clock::now();
      const Json j = Json::parse(line);
      parse_s += seconds_since(t0);
      const auto t1 = Clock::now();
      const std::string out = j.dump();
      dump_s += seconds_since(t1);
      bytes += static_cast<double>(line.size());
      dumped += static_cast<double>(out.size());
    }
    r.layer["json.parse_mb_per_s"] = parse_s > 0 ? bytes / 1e6 / parse_s : 0;
    r.layer["json.dump_mb_per_s"] = dump_s > 0 ? dumped / 1e6 / dump_s : 0;

    // Traced: the same fixed-rate segments again with the tracer on, on a
    // fresh server so heavy ops are not served from the first phase's
    // model store or synth memo.
    srv->stop();
    srv = start_server();
    PhaseResult traced_phase;
    const auto spans = traced([&] {
      Generator traced_gen(srv->port(), eval_conns);
      traced_phase = run_plan(traced_gen, nullptr, nullptr);
    });
    count_ops(traced_phase);
    r.layer["obs.overhead_frac"] = median(traced_phase.segment_ref_per_op) /
                                       median(fixed.segment_ref_per_op) -
                                   1.0;
    const auto solve = spans.find("solve");
    r.layer["sat.solve_s"] = solve == spans.end() ? 0.0 : solve->second.total_s;
    fill_trace_layers(
        spans, {"eval", "learn", "synth", "cec", "parse", "serialize"}, &r);
  }
  r.check(r.failed() == 0, std::to_string(r.failed()) +
                                " requests were answered with an error");
  srv->stop();
  return r;
}

}  // namespace lsmlbench
