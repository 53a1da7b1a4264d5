// serial_churn: one closed-loop client drives ConnectionManager — the
// serial engine rtcac_admit uses — on the 16-node RTnet star-ring
// (paper §5) with point-to-point routes of 1-8 ring hops, a standing
// population of thousands of segment-rich VBR/CBR connections over four
// priorities, exact (uncoalesced) aggregates, and a check 30 / setup 30 /
// release 25 / MODIFY 15 op mix.  Almost all of the work is in the
// stream algebra, SwitchCac and the PathEvaluator hop walk: long walks
// over deep merge trees.
//
// Gates: the whole decision stream (standing population included) must
// equal AdmissionEngine::replay(trace, 1); every kScratchEvery-th op
// compares the cached SwitchCac::check with check_from_scratch; every
// switch must hold exactly the surviving connections' reservations; and
// both the standing population (right after set-up, where cells_per_s is
// timed) and the surviving one must keep every computed bound in the cell
// simulator with zero drops.

#include <iostream>
#include <map>
#include <memory>

#include "workloads.h"

namespace rtbench {

namespace {

using rtcac::AdmissionEngine;
using rtcac::ConnectionManager;
using TraceOp = AdmissionEngine::TraceOp;

// Sized so the standing population sits at the CAC's capacity: ~2.8k of
// the 3.5k offered connections admit, the mix's 30 setups / 25 releases
// balance at an admit ratio of ~5/6, and about one measured setup in ten
// is an admission (not deadline) rejection.
constexpr RingSpec kSpec{
    .ring_nodes = 16,
    .terminals_per_node = 4,
    .max_ring_hops = 8,
    .advertised_bound = 2048,
    .mix = {.cbr_share = 0.3,
            .rate_lo = 1.0 / 32768,
            .rate_hi = 1.0 / 4096,
            .peak_factor_hi = 8,
            .mbs_hi = 8,
            .tight_share = 0.1,
            .tight_lo = 200,
            .tight_hi = 3000},
    .population = 3500,
    .op_mix = {30, 30, 25, 15},
    .salt = 0x5e71a1,
};
constexpr std::size_t kScratchEvery = 256;
constexpr rtcac::Tick kSimHorizon = 120000;

/// One executed op as the decision gate replays it.
struct Step {
  static constexpr std::uint32_t kNoTarget = ~std::uint32_t{0};
  const ClientOp* op = nullptr;
  std::uint32_t target = kNoTarget;  ///< step of the setup acted on
  Verdict verdict;
};

/// The ring world plus the decision record so far.
struct World : RingWorld {
  using RingWorld::RingWorld;
  std::vector<Step> steps;
  std::size_t cursor = 0;  ///< next stream op (cyclic)
};

class Client {
 public:
  Client(World& w, Inject inject) : w_(w), inject_(inject) {}

  /// Runs stream ops for `seconds` of measured CPU time (gate work and
  /// host probes excluded); returns that time in seconds.  With `log` set
  /// every op is traced.
  double run(double seconds, OpSamples& samples, SpanLog* log,
             ProbeSamples& probes) {
    const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t start = cpu_ns();
    std::int64_t paused = 0;
    while (cpu_ns() - start - paused < budget) {
      paused += probes.sample_due();
      const std::size_t index = w_.cursor++;
      const ClientOp& op = w_.stream[index % w_.stream.size()];
      if (index % kScratchEvery == 0 &&
          (op.kind == OpKind::kCheck || op.kind == OpKind::kSetup)) {
        const std::int64_t t0 = cpu_ns();
        const auto& hops = w_.hops[op.route];
        check_against_scratch(*w_.cm, hops, w_.eval_hops[op.route], op.request,
                              op.pick % hops.size(), inject_);
        paused += cpu_ns() - t0;
      }
      try {
        execute(op, samples, log);
      } catch (const GateFailure&) {
        throw;
      } catch (const std::exception&) {
        ++failed_;
      }
    }
    return static_cast<double>(cpu_ns() - start - paused) / 1e9;
  }

  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const WalkStats& walks() const { return walks_; }
  [[nodiscard]] LayerSamples& derived() { return derived_; }

  /// Setup op outside any measured section (standing population).
  void load(const ClientOp& op) {
    record_setup(op, w_.cm->setup(op.request, w_.routes[op.route]));
  }

 private:
  void record_setup(const ClientOp& op, const ConnectionManager::SetupResult& r) {
    if (r.accepted) {
      w_.live.push_back(Live{r.id, op.route, op.request, w_.steps.size()});
    }
    w_.steps.push_back(Step{&op, Step::kNoTarget,
                            Verdict::of(r.accepted, r.reason, r.reject)});
  }

  void execute(const ClientOp& op, OpSamples& samples, SpanLog* log) {
    ConnectionManager& cm = *w_.cm;
    const Route& route = w_.routes[op.route];
    double eval_ns = 0;
    if (log != nullptr &&
        (op.kind == OpKind::kCheck || op.kind == OpKind::kSetup)) {
      eval_ns = probe_walk(cm, w_.hops[op.route], w_.eval_hops[op.route],
                           op.request, *log, derived_, walks_);
    }
    switch (op.kind) {
      case OpKind::kCheck: {
        const std::int64_t t0 = cpu_ns();
        const auto r = cm.check(op.request, route);
        samples.check.add(cpu_ns() - t0);
        w_.steps.push_back(Step{&op, Step::kNoTarget,
                                Verdict::of(r.accepted, r.reason, r.reject)});
        break;
      }
      case OpKind::kSetup: {
        SpanLog::Scope span(log, "connection_manager.setup");
        const std::int64_t t0 = cpu_ns();
        const auto r = cm.setup(op.request, route);
        samples.connect.add(cpu_ns() - t0);
        if (log != nullptr) {
          derived_["connection_manager.setup_self"].push_back(span.close() -
                                                              eval_ns);
        }
        ++samples.setups;
        if (r.accepted) ++samples.admitted;
        record_setup(op, r);
        break;
      }
      case OpKind::kRelease: {
        if (w_.live.empty()) return;
        const std::size_t pick = op.pick % w_.live.size();
        const Live victim = w_.live[pick];
        w_.live[pick] = w_.live.back();
        w_.live.pop_back();
        SpanLog::Scope span(log, "connection_manager.teardown");
        const std::int64_t t0 = cpu_ns();
        const bool ok = cm.teardown(victim.id);
        samples.release.add(cpu_ns() - t0);
        span.close();
        if (!ok) throw GateFailure("teardown of a live connection failed");
        w_.steps.push_back(Step{&op, static_cast<std::uint32_t>(victim.tag),
                                Verdict::of(true, {}, {})});
        break;
      }
      case OpKind::kModify: {
        if (w_.live.empty()) return;
        Live& target = w_.live[op.pick % w_.live.size()];
        SpanLog::Scope span(log, "connection_manager.renegotiate");
        const std::int64_t t0 = cpu_ns();
        const auto r = cm.renegotiate(target.id, op.request);
        samples.modify.add(cpu_ns() - t0);
        span.close();
        w_.steps.push_back(Step{&op, static_cast<std::uint32_t>(target.tag),
                                Verdict::of(r.accepted, r.reason, r.reject)});
        if (r.accepted) target.request = op.request;
        break;
      }
    }
  }

  World& w_;
  Inject inject_;
  std::uint64_t failed_ = 0;
  WalkStats walks_;
  LayerSamples derived_;
};

std::unique_ptr<World> build_world(std::uint64_t seed) {
  auto w = std::make_unique<World>(kSpec, seed);
  Client loader(*w, Inject::kNone);
  for (const ClientOp& op : w->population) loader.load(op);
  // Warm every queue's derived-stream caches the measured ops read.
  QosRequest probe;
  probe.traffic = rtcac::TrafficDescriptor::cbr(1.0 / 4096);
  for (const Route& route : w->routes) {
    for (Priority p = 0; p < kPriorities; ++p) {
      probe.priority = p;
      (void)w->cm->check(probe, route);
    }
  }
  return w;
}

/// The executed steps as a replayable trace.
std::vector<TraceOp> build_trace(const World& w) {
  std::vector<TraceOp> trace;
  trace.reserve(w.steps.size());
  for (const Step& step : w.steps) {
    const ClientOp& op = *step.op;
    TraceOp t;
    t.request = op.request;
    switch (op.kind) {
      case OpKind::kCheck:
        t.kind = TraceOp::Kind::kCheck;
        t.route = w.routes[op.route];
        break;
      case OpKind::kSetup:
        t.kind = TraceOp::Kind::kSetup;
        t.route = w.routes[op.route];
        break;
      case OpKind::kRelease:
        t.kind = TraceOp::Kind::kTeardown;
        t.target = step.target;
        break;
      case OpKind::kModify:
        t.kind = TraceOp::Kind::kModify;
        t.target = step.target;
        break;
    }
    trace.push_back(std::move(t));
  }
  return trace;
}

}  // namespace

Outcome run_serial_churn(const Options& options) {
  RunRecord record;
  record.rss_start_mb = rss_mb(/*peak=*/false);
  const std::unique_ptr<World> w = timed_setup(
      record.setup_s, [&] { return build_world(options.seed); });
  const std::size_t loaded = w->steps.size();
  record.sim = soundness_gate(w->net->topology(), kSpec.advertised_bound,
                              w->live, w->routes, w->hops, w->bound(),
                              kSimHorizon, options.inject, /*timed=*/true);

  Client client(*w, options.inject);
  measure(options, record, [&](double seconds, OpSamples& samples, SpanLog* log) {
    return client.run(seconds, samples, log, record.probes);
  });
  record.failed = client.failed();

  std::map<rtcac::RejectCode, std::size_t> rejects;
  for (std::size_t i = loaded; i < w->steps.size(); ++i) {
    ++rejects[w->steps[i].verdict.code];
  }
  std::cerr << "serial_churn: " << w->live.size()
            << " live connections at the end; "
            << rejects[rtcac::RejectCode::kAdmission] << " admission and "
            << rejects[rtcac::RejectCode::kDeadline]
            << " deadline rejections in " << (w->steps.size() - loaded)
            << " measured ops\n";

  // Decision gate: the serial engine's stream against the sharded
  // engine's serial replay of the same trace.
  {
    AdmissionEngine engine(w->net->topology(),
                           manager_params(kSpec.advertised_bound));
    std::vector<Verdict> replayed;
    for (const auto& outcome : engine.replay(build_trace(*w), 1)) {
      replayed.push_back(Verdict::of(outcome));
    }
    std::vector<Verdict> decisions;
    for (const Step& step : w->steps) decisions.push_back(step.verdict);
    require_identical(replayed, std::move(decisions), options.inject,
                      "serial_churn vs AdmissionEngine::replay");
  }
  audit_reservations(w->live, w->hops, w->ring_nodes(), w->held(),
                     "serial_churn", options.inject);
  record.sim.add_untimed(soundness_gate(
      w->net->topology(), kSpec.advertised_bound, w->live, w->routes, w->hops,
      w->bound(), kSimHorizon, options.inject, /*timed=*/false));

  if (options.trace) {
    add_walk_counters(client.walks(), record.traced.ops(), record.counters);
    record.derived = std::move(client.derived());
    record.points = w->points();
  }
  return report(options, record);
}

}  // namespace rtbench
