// parallel_mixed: nproc / 2 free-running closed-loop clients call
// AdmissionEngine::check/setup/teardown/renegotiate directly (no
// pipeline threads) on an 8-switch chain whose routes cross 1-3
// switches, with an 80 % check / 20 % update mix over a standing
// population.  The only workload where ConcurrentCac's lock-free
// snapshot read path and its validate-on-commit write path carry the
// load under contention.  Half the CPUs stay free: with a client on
// every CPU of a shared host the clients queue behind the host's other
// work, and the tail latencies measure the scheduler.
//
// Per-op latencies are the client thread's CPU time and ops_per_s is the
// ops over the clients' mean CPU time, like every workload's (cpu_ns),
// scaled to the reference host by the probes each client takes.  Time a
// client spends blocked on another's lock is therefore not in them: read
// on the wall clock it flips between two modes from run to run
// (connect_p99_us about 0.7 or 2.5 ms, ops_per_s about 23k or 16k on a
// 4-vCPU host), so it is reported per layer instead, as
// concurrent_cac.off_cpu_share next to the commit spans.
//
// Gates: after the measured section the engine's state audits must hold
// and every switch must hold exactly the reservations of the connections
// the clients hold; the first kReplayOps ops the clients issued, in issue
// order, are replayed untimed by AdmissionEngine::replay on as many
// threads as there are clients and must match a serial ConnectionManager
// oracle op for op; and both the standing population (right after set-up,
// where cells_per_s is timed) and the surviving one must keep every
// computed bound in the cell simulator.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "workloads.h"

namespace rtbench {

namespace {

using rtcac::AdmissionEngine;
using rtcac::ConcurrentCac;
using rtcac::ConnectionManager;
using rtcac::HopRef;
using rtcac::LinkId;
using rtcac::NodeId;
using TraceOp = AdmissionEngine::TraceOp;

constexpr std::size_t kSwitches = 8;
constexpr std::size_t kTerminalsPerSwitch = 4;
constexpr std::size_t kMaxSwitches = 3;
constexpr double kAdvertisedBound = 512;
constexpr TrafficMix kMix{.cbr_share = 0.3,
                          .rate_lo = 1.0 / 16384,
                          .rate_hi = 1.0 / 2048,
                          .peak_factor_hi = 8,
                          .mbs_hi = 16,
                          .tight_share = 0.1,
                          .tight_lo = 100,
                          .tight_hi = 1500};
// 4000 offered standing connections of which ~3000 admit: about where the
// 8 setup / 7 release weights of the mix balance (admit ratio ~7/8), so
// the population stays level through the run.
constexpr std::size_t kPopulation = 4000;
constexpr std::array<unsigned, 4> kOpMix = {80, 8, 7, 5};
/// Issued ops (standing population included) the decision gate replays:
/// a prefix in issue order, so its record is bounded whatever the rate.
constexpr std::uint64_t kReplayOps = 65536;
constexpr rtcac::Tick kSimHorizon = 120000;

struct Field {
  rtcac::Topology topology;
  std::vector<NodeId> switches;
  std::vector<Route> routes;
};

// Chain of kSwitches switches, each with its own source and sink
// terminals; a route enters at one switch and leaves 0-2 switches
// downstream, so neighbouring routes contend on shared shards.
Field make_field() {
  Field f;
  for (std::size_t s = 0; s < kSwitches; ++s) {
    f.switches.push_back(f.topology.add_switch("sw" + std::to_string(s)));
  }
  std::vector<LinkId> chain;
  for (std::size_t s = 0; s + 1 < kSwitches; ++s) {
    chain.push_back(f.topology.add_link(f.switches[s], f.switches[s + 1]));
  }
  std::vector<std::vector<LinkId>> access(kSwitches);
  std::vector<std::vector<LinkId>> egress(kSwitches);
  for (std::size_t s = 0; s < kSwitches; ++s) {
    for (std::size_t t = 0; t < kTerminalsPerSwitch; ++t) {
      const std::string tag = std::to_string(s) + "_" + std::to_string(t);
      access[s].push_back(f.topology.add_link(
          f.topology.add_terminal("src" + tag), f.switches[s]));
      egress[s].push_back(f.topology.add_link(
          f.switches[s], f.topology.add_terminal("dst" + tag)));
    }
  }
  for (std::size_t s = 0; s < kSwitches; ++s) {
    for (std::size_t n = 1; n <= kMaxSwitches && s + n <= kSwitches; ++n) {
      for (std::size_t t = 0; t < kTerminalsPerSwitch; ++t) {
        Route route{access[s][t]};
        for (std::size_t h = s; h + 1 < s + n; ++h) route.push_back(chain[h]);
        route.push_back(egress[s + n - 1][t]);
        f.routes.push_back(std::move(route));
      }
    }
  }
  return f;
}

/// One issued op, for the post-run replay: the generated op it ran and,
/// for a release/modify, the issue sequence of the setup that created
/// its connection.
struct Issued {
  std::uint64_t seq = 0;
  const ClientOp* op = nullptr;
  std::uint64_t target_seq = 0;
};

struct ClientState {
  std::vector<ClientOp> stream;
  std::size_t cursor = 0;  ///< next stream op (cyclic)
  std::vector<Live> live;  ///< tag: issue sequence of the creating setup
  std::vector<Issued> issued;
  OpSamples samples;
  double cpu_s = 0;    ///< CPU time of the last run, probes excluded
  double probe_s = 0;  ///< CPU time of the last run's probes
  ProbeSamples probes;
  SpanLog log;
  LayerSamples derived;
  std::uint64_t failed = 0;
};

struct World {
  Field field;
  std::unique_ptr<AdmissionEngine> engine;
  std::vector<std::vector<HopRef>> hops;  // per route
  std::vector<ClientState> clients;
  std::vector<ClientOp> population_ops;
  std::vector<Issued> population;
  std::atomic<std::uint64_t> seq{0};
  std::size_t loaded = 0;  ///< standing connections admitted at set-up

  [[nodiscard]] std::vector<Live> all_live() const {
    std::vector<Live> out;
    for (const ClientState& c : clients) {
      out.insert(out.end(), c.live.begin(), c.live.end());
    }
    return out;
  }
};

std::unique_ptr<World> build_world(std::uint64_t seed, std::size_t nclients) {
  auto w = std::make_unique<World>();
  w->field = make_field();
  rtcac::Xorshift rng(seed * 0x9E3779B97F4A7C15ULL + 0x9a7a11e1);
  w->population_ops = generate_ops(rng, kPopulation, {0, 1, 0, 0},
                                   w->field.routes.size(), kMix);
  w->clients.resize(nclients);
  for (ClientState& c : w->clients) {
    c.stream = generate_ops(rng, kStreamOps, kOpMix, w->field.routes.size(),
                            kMix);
  }
  w->engine = std::make_unique<AdmissionEngine>(
      w->field.topology, manager_params(kAdvertisedBound));
  for (const Route& route : w->field.routes) {
    w->hops.push_back(w->engine->queueing_points(route));
  }
  for (std::size_t i = 0; i < w->population_ops.size(); ++i) {
    const ClientOp& op = w->population_ops[i];
    const std::uint64_t seq = w->seq++;
    const auto r = w->engine->setup(op.request, w->field.routes[op.route]);
    w->population.push_back(Issued{seq, &op, 0});
    if (r.accepted) {
      w->clients[i % nclients].live.push_back(
          Live{r.id, op.route, op.request, seq});
      ++w->loaded;
    }
  }
  // Warm every queue's snapshot the measured checks read.
  QosRequest probe;
  probe.traffic = rtcac::TrafficDescriptor::cbr(1.0 / 4096);
  for (const Route& route : w->field.routes) {
    for (Priority p = 0; p < kPriorities; ++p) {
      probe.priority = p;
      (void)w->engine->check(probe, route);
    }
  }
  return w;
}

/// Which derived sample the commit-time decomposition lands in.
enum class Phase { kUntraced, kTracedSolo, kTracedContended };

class Runner {
 public:
  explicit Runner(World& w)
      : w_(w), ev_({kPriorities, rtcac::CdvPolicy::kHard,
                    rtcac::GuaranteeMode::kComputed}) {}

  /// Runs clients [0, active) together for `seconds` of wall time, their
  /// latencies merged into `samples`; returns their mean CPU time (s).
  double run(std::size_t active, double seconds, Phase phase,
             OpSamples& samples) {
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t start = 0;
    for (std::size_t c = 0; c < active; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        client_loop(w_.clients[c], start + budget, phase);
      });
    }
    start = now_ns();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    const double wall = static_cast<double>(now_ns() - start) / 1e9;
    double cpu_s = 0;
    double probe_s = 0;
    for (ClientState& c : w_.clients) {
      samples.merge(c.samples);
      c.samples = OpSamples{};
      cpu_s += c.cpu_s;
      probe_s += c.probe_s;
      c.cpu_s = c.probe_s = 0;
    }
    cpu_s /= static_cast<double>(active);
    probe_s /= static_cast<double>(active);
    off_cpu_share_ = 1 - (cpu_s + probe_s) / wall;
    return cpu_s;
  }

  /// Share of the last run's wall the clients spent off their CPUs:
  /// blocked on each other's locks, or descheduled by the host.
  [[nodiscard]] double off_cpu_share() const { return off_cpu_share_; }

 private:
  void client_loop(ClientState& c, std::int64_t deadline, Phase phase) {
    const std::int64_t cpu0 = cpu_ns();
    std::int64_t probed = 0;
    while (now_ns() < deadline) {
      probed += c.probes.sample_due();
      const ClientOp& op = c.stream[c.cursor++ % c.stream.size()];
      try {
        execute(c, op, phase);
      } catch (const std::exception&) {
        ++c.failed;
      }
    }
    c.cpu_s = static_cast<double>(cpu_ns() - cpu0 - probed) / 1e9;
    c.probe_s = static_cast<double>(probed) / 1e9;
  }

  /// Traced probe of the engine's speculative per-hop checks through the
  /// sharded core; returns their summed span (ns).
  double probe_hops(ClientState& c, const ClientOp& op) {
    const ConcurrentCac& core = w_.engine->core();
    std::vector<double> upstream;
    double total = 0;
    for (const HopRef& hop : w_.hops[op.route]) {
      ConcurrentCac::HopSpec spec;
      spec.shard = w_.engine->shard_of(hop.node);
      spec.in_port = hop.in_port;
      spec.out_port = hop.out_port;
      spec.priority = op.request.priority;
      const double cdv = ev_.accumulated_cdv(upstream);
      spec.arrival = c.log.record("stream_ops.arrival", [&] {
        return core.prepare(spec.shard, op.request.traffic, cdv);
      });
      double ns = 0;
      (void)c.log.record("concurrent_cac.check_hop",
                         [&] { return core.check_hop(spec); }, &ns);
      total += ns;
      upstream.push_back(
          core.advertised(spec.shard, hop.out_port, op.request.priority));
    }
    return total;
  }

  void issue(ClientState& c, std::uint64_t seq, const ClientOp& op,
             std::uint64_t target_seq) {
    if (seq < kReplayOps) c.issued.push_back(Issued{seq, &op, target_seq});
  }

  void execute(ClientState& c, const ClientOp& op, Phase phase) {
    AdmissionEngine& engine = *w_.engine;
    const Route& route = w_.field.routes[op.route];
    const std::uint64_t seq = w_.seq.fetch_add(1, std::memory_order_relaxed);
    SpanLog* log = phase == Phase::kUntraced ? nullptr : &c.log;
    double speculative_ns = 0;
    if (log != nullptr &&
        (op.kind == OpKind::kCheck || op.kind == OpKind::kSetup)) {
      speculative_ns = probe_hops(c, op);
    }
    switch (op.kind) {
      case OpKind::kCheck: {
        const std::int64_t t0 = cpu_ns();
        (void)engine.check(op.request, route);
        c.samples.check.add(cpu_ns() - t0);
        issue(c, seq, op, 0);
        break;
      }
      case OpKind::kSetup: {
        SpanLog::Scope span(log, "admission_engine.setup");
        const std::int64_t t0 = cpu_ns();
        const auto r = engine.setup(op.request, route);
        c.samples.connect.add(cpu_ns() - t0);
        if (log != nullptr) {
          c.derived[phase == Phase::kTracedSolo ? "concurrent_cac.commit_solo"
                                                : "concurrent_cac.commit"]
              .push_back(span.close() - speculative_ns);
        }
        ++c.samples.setups;
        if (r.accepted) {
          ++c.samples.admitted;
          c.live.push_back(Live{r.id, op.route, op.request, seq});
        }
        issue(c, seq, op, 0);
        break;
      }
      case OpKind::kRelease: {
        if (c.live.empty()) return;
        const std::size_t pick = op.pick % c.live.size();
        const Live victim = c.live[pick];
        c.live[pick] = c.live.back();
        c.live.pop_back();
        const std::int64_t t0 = cpu_ns();
        const bool ok = engine.teardown(victim.id);
        c.samples.release.add(cpu_ns() - t0);
        if (!ok) ++c.failed;
        issue(c, seq, op, victim.tag);
        break;
      }
      case OpKind::kModify: {
        if (c.live.empty()) return;
        Live& target = c.live[op.pick % c.live.size()];
        const std::int64_t t0 = cpu_ns();
        const auto r = engine.renegotiate(target.id, op.request);
        c.samples.modify.add(cpu_ns() - t0);
        issue(c, seq, op, target.tag);
        if (r.accepted) target.request = op.request;
        break;
      }
    }
  }

  World& w_;
  rtcac::PathEvaluator ev_;
  double off_cpu_share_ = 0;
};

/// The recorded issued ops in issue order as a replayable trace (targets
/// resolved to trace indices).
std::vector<TraceOp> build_trace(const World& w) {
  std::vector<Issued> all = w.population;
  for (const ClientState& c : w.clients) {
    all.insert(all.end(), c.issued.begin(), c.issued.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Issued& a, const Issued& b) { return a.seq < b.seq; });
  std::map<std::uint64_t, std::size_t> index_of;
  std::vector<TraceOp> trace;
  trace.reserve(all.size());
  for (const Issued& issued : all) {
    const ClientOp& op = *issued.op;
    TraceOp t;
    t.request = op.request;
    switch (op.kind) {
      case OpKind::kCheck:
        t.kind = TraceOp::Kind::kCheck;
        t.route = w.field.routes[op.route];
        break;
      case OpKind::kSetup:
        t.kind = TraceOp::Kind::kSetup;
        t.route = w.field.routes[op.route];
        index_of[issued.seq] = trace.size();
        break;
      case OpKind::kRelease:
        t.kind = TraceOp::Kind::kTeardown;
        t.target = index_of.at(issued.target_seq);
        break;
      case OpKind::kModify:
        t.kind = TraceOp::Kind::kModify;
        t.target = index_of.at(issued.target_seq);
        break;
    }
    trace.push_back(std::move(t));
  }
  return trace;
}

/// The serial reference: a plain ConnectionManager walking the trace in
/// order.  A MODIFY of a connection that is not live (its setup was
/// rejected, or it was already released) reports the engine's
/// unknown-id rejection, as AdmissionEngine::replay does.
std::vector<Verdict> oracle_replay(const std::vector<TraceOp>& trace,
                                   const rtcac::Topology& topology) {
  ConnectionManager cm(topology, manager_params(kAdvertisedBound));
  std::vector<Verdict> out(trace.size());
  std::vector<ConnectionId> ids(trace.size(), rtcac::kInvalidConnection);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    const ConnectionId id =
        op.target != TraceOp::kNoTarget ? ids[op.target] : op.id;
    switch (op.kind) {
      case TraceOp::Kind::kCheck: {
        const auto r = cm.check(op.request, op.route);
        out[i] = Verdict::of(r.accepted, r.reason, r.reject);
        break;
      }
      case TraceOp::Kind::kSetup: {
        const auto r = cm.setup(op.request, op.route);
        ids[i] = r.accepted ? r.id : rtcac::kInvalidConnection;
        out[i] = Verdict::of(r.accepted, r.reason, r.reject);
        break;
      }
      case TraceOp::Kind::kTeardown:
        out[i] = Verdict::of(
            id != rtcac::kInvalidConnection && cm.teardown(id), {}, {});
        break;
      case TraceOp::Kind::kModify: {
        if (id == rtcac::kInvalidConnection) {
          out[i] = Verdict::of(false, {}, {});
          break;
        }
        if (!cm.connections().contains(id)) {
          rtcac::RejectReason unknown;
          unknown.code = rtcac::RejectCode::kNoRoute;
          unknown.detail = "renegotiate: unknown connection id";
          out[i] = Verdict::of(false, unknown.detail, unknown);
          break;
        }
        const auto r = cm.renegotiate(id, op.request);
        out[i] = Verdict::of(r.accepted, r.reason, r.reject);
        break;
      }
      case TraceOp::Kind::kTeardownDeferred:
      case TraceOp::Kind::kDrain:
        throw std::logic_error("oracle_replay: op kind not generated");
    }
  }
  return out;
}

}  // namespace

Outcome run_parallel_mixed(const Options& options) {
  const std::size_t nclients =
      std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2);
  RunRecord record;
  record.rss_start_mb = rss_mb(/*peak=*/false);
  const std::unique_ptr<World> w = timed_setup(
      record.setup_s, [&] { return build_world(options.seed, nclients); });
  const AdmissionEngine& engine = *w->engine;
  const BoundFn bound = [&](NodeId node, std::size_t port, Priority prio) {
    return engine.core().computed_bound(engine.shard_of(node), port, prio);
  };
  record.sim =
      soundness_gate(w->field.topology, kAdvertisedBound, w->all_live(),
                     w->field.routes, w->hops, bound, kSimHorizon,
                     options.inject, /*timed=*/true);

  // Traced, the section runs one client alone for half its time (the
  // uncontended commit reference), then all of them.
  Runner runner(*w);
  measure(options, record, [&](double seconds, OpSamples& samples, SpanLog* log) {
    if (log == nullptr) {
      const double cpu_s =
          runner.run(nclients, seconds, Phase::kUntraced, samples);
      record.counters["concurrent_cac.off_cpu_share"] = runner.off_cpu_share();
      return cpu_s;
    }
    OpSamples solo;
    (void)runner.run(1, seconds / 2, Phase::kTracedSolo, solo);
    record.side_ops += solo.ops();
    return runner.run(nclients, seconds / 2, Phase::kTracedContended, samples);
  });

  if (!engine.state_consistent() || !engine.bandwidth_conserved() ||
      !engine.cache_coherent()) {
    throw GateFailure("parallel_mixed: engine state audit failed after the "
                      "measured section");
  }
  const std::vector<Live> live = w->all_live();
  audit_reservations(
      live, w->hops, w->field.switches,
      [&](NodeId node) {
        return engine.core().shard_state(engine.shard_of(node)).connection_ids();
      },
      "parallel_mixed", options.inject);
  record.sim.add_untimed(soundness_gate(
      w->field.topology, kAdvertisedBound, live, w->field.routes, w->hops,
      bound, kSimHorizon, options.inject, /*timed=*/false));

  // Decision gate on the issued op stream.
  const std::vector<TraceOp> trace = build_trace(*w);
  std::cerr << "parallel_mixed: " << nclients << " clients, " << w->loaded
            << " standing connections, " << live.size()
            << " live at the end, " << trace.size() << " ops replayed\n";
  {
    AdmissionEngine replayer(w->field.topology, manager_params(kAdvertisedBound));
    std::vector<Verdict> replayed;
    for (const auto& outcome : replayer.replay(trace, nclients)) {
      replayed.push_back(Verdict::of(outcome));
    }
    require_identical(replayed, oracle_replay(trace, w->field.topology),
                      options.inject,
                      "parallel_mixed replay vs serial ConnectionManager");
  }

  for (const ClientState& c : w->clients) {
    record.failed += c.failed;
    record.probes.merge(c.probes);
  }
  if (options.trace) {
    for (ClientState& c : w->clients) {
      for (auto& [name, values] : c.derived) {
        auto& all = record.derived[name];
        all.insert(all.end(), values.begin(), values.end());
      }
      record.spans.merge(c.log);
    }
    const double solo =
        percentile(record.derived["concurrent_cac.commit_solo"], 50);
    record.counters["concurrent_cac.contention_ratio"] =
        solo > 0 ? percentile(record.derived["concurrent_cac.commit"], 50) / solo
                 : 0;
    for (std::size_t s = 0; s < engine.core().shard_count(); ++s) {
      record.points.push_back(&engine.core().shard_state(s));
    }
  }
  return report(options, record);
}

}  // namespace rtbench
