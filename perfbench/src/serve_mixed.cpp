// serve_mixed: an open loop against the socket server. One client thread
// sends a seeded request mix on a fixed arrival schedule over a few
// loopback connections to net::Server + CompileService (one model,
// micro-batching, LRU cache), and times each request from when it was due.
// The schedule is played several rounds, each on a freshly started service,
// and a request's latency is its lower quartile over the rounds.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "bench_suite/benchmarks.hpp"
#include "ir/qasm.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "rl/thread_pool.hpp"
#include "service/compile_service.hpp"
#include "service/jsonl.hpp"

namespace perfbench {

using namespace qrc;

namespace {

/// The workload definition. Every thread count is fixed: one client
/// thread, one event-loop thread, and one lane: a scheduler thread with a
/// pool of min(max_batch, nproc) threads. Every request kind shares the
/// lane, so a search holds up the requests queued behind it.
///
/// The rate is a fixed share of the saturation rate measured with
/// `--saturation 1` on a 4-vCPU x86-64 VM. The latency limit and the
/// repeat and verify shares are arbitrary test points; the search share
/// and the widths are explained where they are set.
struct ServeSpec {
  /// Offered load, uniform arrivals: about 30% of the rate the service
  /// sustained with this mix and the lane kept full (16 requests in
  /// flight): 63.3-71.2 requests/s for seeds 1-3, median 66.7. With 11%
  /// searches at this rate (40% of that mix's 48.5/s) the searches alone
  /// kept the lane busy over half the time once co-tenants slowed the
  /// host, and the latencies measured the backlog.
  double rate_per_s = 20.0;
  /// Rounds of the schedule per run, each on a fresh service (empty
  /// cache), so each request is timed several times, seconds apart.
  int rounds = 3;
  double latency_limit_ms = 1000.0;
  // Request mix; the rest are fresh greedy compiles.
  double repeat_share = 0.25;  ///< earlier greedy circuits: cache hits
  /// "beam:8" without a deadline: 22 in a 15 s round, one per family.
  double beam_share = 0.073;
  double verify_share = 0.12;  ///< verify:true
  /// Width 4 is the widest at which the slowest beam:8 search (490 ms on
  /// the VM above; 767 ms at width 5, 1290 ms at width 6) still leaves the
  /// requests queued behind it room within the latency limit. One width
  /// makes every 22 searches cover every family once, so the tail does
  /// not depend on which families the seed leaves out.
  std::vector<int> beam_widths = {4};
  /// Narrow circuits that every device fits; arbitrary test points.
  std::vector<int> greedy_widths = {3, 5, 6};
  /// At most 6 qubits, so the service's alternating miter decides them in
  /// milliseconds.
  std::vector<int> verify_widths = {3, 5};
  /// A repeat targets a greedy request due at least this long before it,
  /// so the original has normally been answered and cached: longer than
  /// the slowest search it may have queued behind.
  double repeat_min_age_s = 0.5;
  int max_connections = 4;  ///< capped at nproc
  int max_batch = 4;
  std::int64_t max_wait_us = 2000;
  std::size_t cache_entries = 1024;
  std::size_t max_lane_queue = 64;
};

enum class Kind { kFresh, kRepeat, kBeam, kVerify };

struct Request {
  Kind kind = Kind::kFresh;
  std::size_t circuit = 0;  ///< index into the distinct circuits
  std::string line;
};

struct Plan {
  /// Distinct inputs as the server receives them: parsed back from the
  /// QASM text of the request, which rounds the angles.
  std::vector<ir::Circuit> circuits;
  std::vector<std::string> names;
  std::vector<Kind> circuit_kind;     ///< how each distinct input is served
  std::vector<Request> requests;
};

/// Deals distinct circuits (by canonical key) of the given widths:
/// every family at every width, in a seeded order, then again with fresh
/// parameters.
class CircuitDealer {
 public:
  CircuitDealer(std::vector<int> widths, std::uint64_t seed,
                std::set<std::string>& seen)
      : widths_(std::move(widths)), rng_(seed), seen_(seen) {}

  ir::Circuit next() {
    for (int attempts = 0; attempts < 100000; ++attempts) {
      if (queue_.empty()) {
        refill();
      }
      ir::Circuit c = std::move(queue_.back());
      queue_.pop_back();
      if (seen_.insert(ir::canonical_key(ir::from_qasm(ir::to_qasm(c))))
              .second) {
        return c;
      }
    }
    throw std::runtime_error("no distinct circuit left to deal");
  }

 private:
  void refill() {
    const std::uint64_t variant = rng_();
    for (const auto family : bench::all_families()) {
      for (const int w : widths_) {
        queue_.push_back(bench::make_benchmark(family, w, variant));
      }
    }
    std::shuffle(queue_.begin(), queue_.end(), rng_);
  }

  std::vector<int> widths_;
  std::mt19937_64 rng_;
  std::set<std::string>& seen_;
  std::vector<ir::Circuit> queue_;
};

Plan make_plan(const ServeSpec& spec, std::uint64_t seed, double seconds) {
  const auto total = static_cast<std::size_t>(
      std::max(1.0, std::round(spec.rate_per_s * seconds)));
  // The kinds follow one fixed pattern that spreads each kind evenly over
  // the schedule (smooth weighted round robin; fresh first, so repeats have
  // a target). A search comes every 14th request or so: one as slow as the
  // slowest (490 ms) holds up the ~10 requests due while it runs, but two
  // searches rarely queue behind each other. Under a shuffled order how
  // often they did varied from seed to seed and moved the tail up to 2x.
  // The seed picks the circuits and the repeats' targets.
  const std::vector<std::pair<Kind, double>> shares = {
      {Kind::kFresh,
       1.0 - spec.repeat_share - spec.beam_share - spec.verify_share},
      {Kind::kRepeat, spec.repeat_share},
      {Kind::kBeam, spec.beam_share},
      {Kind::kVerify, spec.verify_share}};
  std::vector<double> credit(shares.size(), 0.0);
  std::vector<Kind> kinds;
  for (std::size_t i = 0; i < total; ++i) {
    std::size_t pick = 0;
    for (std::size_t k = 0; k < shares.size(); ++k) {
      credit[k] += shares[k].second;
      if (credit[k] > credit[pick]) {
        pick = k;
      }
    }
    credit[pick] -= 1.0;
    kinds.push_back(shares[pick].first);
  }
  std::mt19937_64 rng(seed);

  Plan plan;
  std::set<std::string> seen;
  CircuitDealer greedy(spec.greedy_widths, seed ^ 0x9e3779b97f4a7c15ULL, seen);
  CircuitDealer beam(spec.beam_widths, seed ^ 0xc2b2ae3d27d4eb4fULL, seen);
  CircuitDealer verify(spec.verify_widths, seed ^ 0x165667b19e3779f9ULL, seen);
  std::vector<std::size_t> fresh_requests;  // request indices
  const double gap_s = 1.0 / spec.rate_per_s;
  for (std::size_t i = 0; i < total; ++i) {
    Request r;
    r.kind = kinds[i];
    if (r.kind == Kind::kRepeat) {
      std::size_t eligible = 0;
      while (eligible < fresh_requests.size() &&
             static_cast<double>(i - fresh_requests[eligible]) * gap_s >=
                 spec.repeat_min_age_s) {
        ++eligible;
      }
      if (eligible == 0) {
        eligible = fresh_requests.size();
      }
      std::uniform_int_distribution<std::size_t> pick(0, eligible - 1);
      r.circuit = plan.requests[fresh_requests[pick(rng)]].circuit;
    } else {
      r.circuit = plan.circuits.size();
      const ir::Circuit c = r.kind == Kind::kFresh  ? greedy.next()
                            : r.kind == Kind::kBeam ? beam.next()
                                                    : verify.next();
      plan.circuits.push_back(ir::from_qasm(ir::to_qasm(c)));
      plan.names.push_back(c.name());
      plan.circuit_kind.push_back(r.kind);
      if (r.kind == Kind::kFresh) {
        fresh_requests.push_back(i);
      }
    }
    r.line = "{\"v\":1,\"op\":\"compile\",\"id\":\"" + std::to_string(i) +
             "\",\"qasm\":" +
             service::json_quote(ir::to_qasm(plan.circuits[r.circuit]));
    if (r.kind == Kind::kBeam) {
      r.line += ",\"search\":\"beam:8\"";
    } else if (r.kind == Kind::kVerify) {
      r.line += ",\"verify\":true";
    }
    r.line += "}\n";
    plan.requests.push_back(std::move(r));
  }
  return plan;
}

/// What came back for one request.
struct Outcome {
  bool answered = false;
  bool result = false;  ///< a "result" frame (not an error)
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  service::JsonValue frame;
};

/// Sends every request on its schedule and collects the answers. Returns
/// the wall time from the first due time to the last answer. With a
/// `window` above 0 the schedule is ignored: each request is sent (and
/// due) as soon as fewer than `window` are unanswered, which keeps the
/// lane saturated.
double run_schedule(int port, int connections, const ServeSpec& spec,
                    const Plan& plan, double grace_s, std::size_t window,
                    std::vector<Outcome>& outcomes) {
  std::vector<net::Socket> socks;
  std::vector<pollfd> fds;
  for (int c = 0; c < connections; ++c) {
    socks.push_back(net::connect_tcp("127.0.0.1", port));
    fds.push_back({socks.back().fd(), POLLIN, 0});
  }
  std::vector<std::string> buffers(static_cast<std::size_t>(connections));
  const std::size_t total = plan.requests.size();
  outcomes.assign(total, Outcome{});
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto gap = std::chrono::duration<double>(1.0 / spec.rate_per_s);
  for (std::size_t i = 0; i < total; ++i) {
    outcomes[i].due =
        start + std::chrono::duration_cast<Clock::duration>(gap * static_cast<double>(i));
  }
  const auto deadline =
      (window > 0 ? start : outcomes.back().due) +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(grace_s));
  std::size_t next = 0;
  std::size_t answered = 0;
  Clock::time_point last_done = start;
  char chunk[65536];
  while (answered < total) {
    auto now = Clock::now();
    if (now > deadline) {
      break;
    }
    while (next < total &&
           (window > 0 ? next - answered < window : outcomes[next].due <= now)) {
      net::send_all(socks[next % socks.size()].fd(), plan.requests[next].line);
      outcomes[next].sent = Clock::now();
      if (window > 0) {
        outcomes[next].due = outcomes[next].sent;
      }
      ++next;
      now = Clock::now();
    }
    const auto wake =
        next < total && window == 0 ? outcomes[next].due : deadline;
    const auto wait = std::max(Clock::duration::zero(), wake - now);
    timespec ts{};
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    ts.tv_sec = static_cast<time_t>(ns / 1000000000);
    ts.tv_nsec = static_cast<long>(ns % 1000000000);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    if (ready <= 0) {
      continue;
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const ssize_t n = ::recv(fds[c].fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n == 0) {
        throw std::runtime_error("server closed a connection");
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        throw std::runtime_error("recv failed");
      }
      const auto arrived = Clock::now();
      std::string& buf = buffers[c];
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t newline;
      while ((newline = buf.find('\n')) != std::string::npos) {
        const std::string line = buf.substr(0, newline);
        buf.erase(0, newline + 1);
        service::JsonValue frame = service::JsonValue::parse(line);
        const auto& obj = frame.as_object();
        const std::string type = obj.at("type").as_string();
        if (type == "partial") {
          continue;
        }
        const std::size_t id = std::stoull(obj.at("id").as_string());
        if (id >= total || outcomes[id].answered) {
          throw std::runtime_error("unexpected frame id " + std::to_string(id));
        }
        Outcome& o = outcomes[id];
        o.answered = true;
        o.done = arrived;
        o.result = type == "result";
        if (!o.result) {
          const auto& error = obj.at("error").as_object();
          std::fprintf(stderr, "request %zu: %s: %s\n", id,
                       error.at("code").as_string().c_str(),
                       error.at("message").as_string().c_str());
        }
        o.frame = std::move(frame);
        last_done = std::max(last_done, arrived);
        ++answered;
      }
    }
  }
  return ms_between(outcomes.front().due, last_done) / 1000.0;
}

/// The service, the server and the model they serve, on one lane.
struct Stack {
  std::unique_ptr<service::CompileService> service;
  std::unique_ptr<net::Server> server;

  void start(const ServeSpec& spec,
             std::shared_ptr<const core::Predictor> model) {
    stop();
    service::ServiceConfig config;
    config.max_batch = spec.max_batch;
    config.max_wait_us = spec.max_wait_us;
    config.cache_entries = spec.cache_entries;
    config.max_lane_queue = spec.max_lane_queue;
    config.default_model = "greedy";
    service = std::make_unique<service::CompileService>(config);
    service->registry().add("greedy", std::move(model));
    net::ServerConfig net_config;
    net_config.host = "127.0.0.1";
    net_config.port = 0;
    server = std::make_unique<net::Server>(*service, net_config);
    server->start();
  }
  void stop() {
    if (server) {
      server->stop();
    }
    server.reset();
    service.reset();
  }
  ~Stack() { stop(); }
};

double field_number(const service::JsonValue& frame, const char* key) {
  return frame.as_object().at(key).as_number();
}
std::string field_string(const service::JsonValue& frame, const char* key) {
  return frame.as_object().at(key).as_string();
}

/// p-th percentile by nearest rank.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// One round of the schedule on the started service and server.
struct Round {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  service::ServiceStats service;
  net::ServerStats server;
};

Round run_round(Stack& stack, const ServeSpec& spec, int connections,
                const Plan& plan, std::size_t window) {
  Round round;
  round.wall_s = run_schedule(stack.server->port(), connections, spec, plan,
                              60.0, window, round.outcomes);
  round.service = stack.service->stats();
  round.server = stack.server->stats();
  stack.stop();
  return round;
}

/// Mean cost of one Clock::now() call, in seconds.
double clock_read_s() {
  constexpr int kReads = 100000;
  Clock::time_point last;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReads; ++i) {
    last = Clock::now();
  }
  return std::chrono::duration<double>(last - t0).count() / kReads;
}

}  // namespace

int run_serve_mixed(const Options& options) {
  const ServeSpec spec;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int connections = std::max(1, std::min(spec.max_connections, hw));
  const int lane_threads = std::max(1, std::min(spec.max_batch, hw));

  Stack stack;
  const SetupRuns setups =
      run_setups(ModelSpec{}, 3, [&](const Setup& setup) {
        stack.stop();  // the previous repeat's teardown is not set-up
        const auto t0 = Clock::now();
        stack.start(spec, setup.model);
        return ms_between(t0, Clock::now()) / 1000.0;
      });
  const core::Predictor& model = *setups.last.model;
  const Plan plan = make_plan(
      spec, options.seed,
      options.saturation ? options.seconds : options.seconds / spec.rounds);
  const std::size_t total = plan.requests.size();

  if (options.saturation) {
    // The schedule's requests with the lane kept full: the rate the
    // service sustains with this mix, from which rate_per_s is set.
    constexpr std::size_t kWindow = 16;
    const Round round = run_round(stack, spec, connections, plan, kWindow);
    std::size_t answered = 0;
    for (const Outcome& o : round.outcomes) {
      answered += o.result ? 1 : 0;
    }
    std::printf("serve_mixed saturation: %zu of %zu requests answered in "
                "%.3f s with %zu in flight: %.2f requests/s\n",
                answered, total, round.wall_s, kWindow,
                static_cast<double>(answered) / round.wall_s);
    return answered == total ? 0 : 1;
  }

  // ---- timed open loop ----------------------------------------------
  // On a shared 4-vCPU x86-64 VM, a request timed once moved with the
  // host: one seed's p50 read 6.4 ms in one run and 9.9 ms in the next.
  // The lower quartile of its rounds drops stretches of contention that
  // cover only some of them.
  std::vector<Round> rounds;
  for (int r = 0; r < spec.rounds; ++r) {
    if (r > 0) {
      stack.start(spec, setups.last.model);  // not timed: a fresh cache
    }
    rounds.push_back(run_round(stack, spec, connections, plan, 0));
  }
  const double rss = peak_rss_mb();

  // ---- untimed output check ------------------------------------------
  // Reference: the same compile made directly through the library. The
  // served result must equal it, and the reference must pass the check.
  const verify::VerifyOptions verify_options;  // the service's default
  rl::WorkerPool pool(lane_threads);
  const search::SearchOptions beam = search::parse_spec("beam:8");
  std::vector<core::CompilationResult> reference;
  std::vector<Checked> checks;
  for (std::size_t c = 0; c < plan.circuits.size(); ++c) {
    const ir::Circuit& circuit = plan.circuits[c];
    if (plan.circuit_kind[c] == Kind::kBeam) {
      reference.push_back(model.compile_search_all(
          std::span<const ir::Circuit>(&circuit, 1), beam, &pool)[0]);
    } else {
      reference.push_back(model.compile(circuit));
    }
    checks.push_back(check_output(circuit, reference.back(), verify_options));
  }
  const auto mismatch = [&](const Request& r, const Outcome& o) -> std::string {
    if (!o.answered) {
      return "no answer";
    }
    if (!o.result) {
      return "error frame";
    }
    const Checked& check = checks[r.circuit];
    const core::CompilationResult& ref = reference[r.circuit];
    if (field_string(o.frame, "qasm") != ir::to_qasm(ref.circuit)) {
      return "served circuit differs from the direct compile";
    }
    if (field_string(o.frame, "device") != ref.device->name()) {
      return "served device differs from the direct compile";
    }
    if (r.kind == Kind::kVerify &&
        field_string(o.frame, "verdict") !=
            verify::verdict_name(check.verdict.verdict)) {
      return "served verdict differs from the reference verdict";
    }
    return check.ok ? "" : check.failure;
  };

  std::uint64_t ok = 0;
  std::uint64_t within_limit = 0;
  std::uint64_t answered_cached = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;  // per request: lower quartile of rounds
  std::vector<double> service_ms;
  std::vector<double> overhead_ms;
  std::vector<double> late_ms;
  for (std::size_t i = 0; i < total; ++i) {
    const Request& r = plan.requests[i];
    std::vector<double> round_ms;
    for (std::size_t k = 0; k < rounds.size(); ++k) {
      const Outcome& o = rounds[k].outcomes[i];
      late_ms.push_back(ms_between(o.due, o.sent));
      const std::string why = mismatch(r, o);
      if (!why.empty()) {
        std::fprintf(stderr, "FAILED request %zu round %zu (%s): %s\n", i, k,
                     plan.names[r.circuit].c_str(), why.c_str());
        continue;
      }
      ++ok;
      const double ms = ms_between(o.due, o.done);
      round_ms.push_back(ms);
      within_limit += ms <= spec.latency_limit_ms ? 1 : 0;
      const double server_ms = field_number(o.frame, "latency_us") / 1000.0;
      service_ms.push_back(server_ms);
      overhead_ms.push_back(ms_between(o.sent, o.done) - server_ms);
      answered_cached += o.frame.as_object().at("cached").as_bool() ? 1 : 0;
    }
    if (!round_ms.empty()) {
      latency_ms.push_back(lower_quartile(round_ms));
    }
  }
  for (const Round& round : rounds) {
    wall_s += round.wall_s;
  }
  const std::uint64_t attempted = total * rounds.size();
  const std::uint64_t failed = attempted - ok;
  const bool correct = failed == 0 && setups.deterministic;

  char buf[240];
  if (!options.trace) {
    Report report(end_to_end_schema());
    const Tail tail = tail_of(latency_ms);
    std::snprintf(buf, sizeof(buf),
                  "serve_mixed: %zu requests at %.1f/s x %zu rounds over %d "
                  "connection(s), a lane pool of %d thread(s), %llu answers "
                  "from the cache",
                  total, spec.rate_per_s, rounds.size(), connections,
                  lane_threads,
                  static_cast<unsigned long long>(answered_cached));
    report.note(buf);
    report.note(model_note(setups));
    std::snprintf(buf, sizeof(buf),
                  "latency_tail_ms is p%.1f of %zu requests, each timed from "
                  "when it was due (lower quartile of its rounds)",
                  tail.percentile, tail.samples);
    report.note(buf);
    report.set("setup_s", setups.setup_s);
    report.set("throughput_per_s", static_cast<double>(ok) / wall_s);
    report.set("latency_p50_ms", median(latency_ms));
    report.set("latency_tail_ms", tail.value);
    report.set("ok_share",
               static_cast<double>(ok) / static_cast<double>(attempted));
    report.set("peak_rss_mb", rss);
    set_quality(report, summarize(checks));
    report.set("slo_share", static_cast<double>(within_limit) /
                                static_cast<double>(attempted));
    report.print(correct, attempted, failed);
    return 0;
  }

  // ---- traced run: per-layer table -----------------------------------
  // Every row comes from the rounds above: the stats the service and the
  // server keep, the timestamps the client takes anyway, and untimed
  // reference work after the rounds.
  Report report(per_layer_schema());
  report.note(model_note(setups));
  set_setup_layers(report, setups);
  set_verify_layers(report, checks);
  double search_ms = 0.0;
  double search_nodes = 0.0;
  double improved = 0.0;
  double searches = 0.0;
  for (std::size_t c = 0; c < plan.circuits.size(); ++c) {
    if (plan.circuit_kind[c] == Kind::kBeam) {
      const auto& stats = *reference[c].search_stats;
      search_ms += static_cast<double>(stats.elapsed_us) / 1000.0;
      search_nodes += static_cast<double>(stats.nodes_expanded);
      improved += stats.improved ? 1.0 : 0.0;
      searches += 1.0;
    }
  }
  service::ServiceStats svc;
  double shed = 0.0;
  double error_frames = 0.0;
  for (const Round& round : rounds) {
    svc.requests += round.service.requests;
    svc.cache_hits += round.service.cache_hits;
    svc.batches += round.service.batches;
    svc.batched_requests += round.service.batched_requests;
    shed += static_cast<double>(round.service.shed +
                                round.server.shed_inflight);
    error_frames += static_cast<double>(round.server.error_frames);
  }
  report.set("search.ms", search_ms);
  report.set("search.nodes", search_nodes);
  report.set("search.improved_share", searches > 0 ? improved / searches : 0.0);
  report.set("service.cache_hit_share",
             svc.requests > 0 ? static_cast<double>(svc.cache_hits) /
                                    static_cast<double>(svc.requests)
                              : 0.0);
  report.set("service.batch_size_mean",
             svc.batches > 0 ? static_cast<double>(svc.batched_requests) /
                                   static_cast<double>(svc.batches)
                             : 0.0);
  report.set("service.shed", shed);
  report.set("service.latency_ms_p50", median(service_ms));
  report.set("net.overhead_ms_p50", median(overhead_ms));
  report.set("net.error_frames", error_frames);
  std::vector<double> parse_us;
  for (const ir::Circuit& c : plan.circuits) {
    const std::string text = ir::to_qasm(c);
    const auto t0 = Clock::now();
    (void)ir::from_qasm(text);
    parse_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
  }
  report.set("ir.qasm_parse_us",
             sum(parse_us) / static_cast<double>(parse_us.size()));
  report.set("loadgen.late_ms_p99", percentile(late_ms, 99.0));
  // No tracing runs during the rounds; the only timers in them are the
  // client's three clock reads per request, which the untraced run takes
  // too. The share is the rounds' throughput over what it would be if
  // those reads were free.
  const double timer_s = 3.0 * static_cast<double>(attempted) * clock_read_s();
  report.set("trace.overhead_share", wall_s / (wall_s + timer_s));
  std::snprintf(buf, sizeof(buf),
                "search.ms and search.nodes are totals over %d beam:8 "
                "searches; verify.* rows cover the output check's %zu verdicts",
                static_cast<int>(searches), checks.size());
  report.note(buf);
  report.print(correct, attempted, failed);
  return 0;
}

}  // namespace perfbench
