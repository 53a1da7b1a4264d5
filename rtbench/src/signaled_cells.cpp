// signaled_cells: the distributed SETUP/MODIFY/RELEASE protocol under a
// seeded fault profile (drops, duplicates, delays, reordering) on an
// 8-node RTnet ring with a standing population in the hundreds.  Ops
// arrive in storms: a storm's route probes run at once, its SETUPs,
// MODIFYs and RELEASEs are all launched together and the control plane
// is stepped until it quiesces, so each op's latency includes the
// messages of the others it queues behind.  The population runs through
// the cell simulator with greedy phase-aligned sources and FIFOs sized to
// the advertised bounds: timed (cells_per_s) as it stands after set-up,
// so the simulated load does not depend on how many storms the host's
// speed allowed, and again, untimed, as it survives the storms.  Most of
// the work is in the
// signaling engine (event queue, retransmission, epochs) and the
// simulator; the stream algebra and SwitchCac stay light.
//
// RELEASE has no retransmission: a RELEASE lost to a fault leaves its
// connection established, and the client reconciles it centrally with
// ConnectionManager::teardown once the storm quiesces (the documented
// recovery; counted in signaling.releases_reconciled).
//
// Gates, after every storm: zero leaked reservations — once expired
// leases are reclaimed every switch holds exactly the reservations of the
// connections the client holds; and in both simulations zero drops and
// every queue's measured worst wait within its computed bound.

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <set>

#include "net/fault_injector.h"
#include "net/signaling.h"
#include "workloads.h"

namespace rtbench {

namespace {

using rtcac::ConnectionManager;
using rtcac::SignalingEngine;
using rtcac::SignalingMessageType;

// ~550 of the 560 offered connections admit, about where the mix's 30
// setups / 25 releases balance, so the population stays level through
// the run.
constexpr RingSpec kSpec{
    .ring_nodes = 8,
    .terminals_per_node = 4,
    .max_ring_hops = 4,
    .advertised_bound = 256,
    .mix = {.cbr_share = 0.3,
            .rate_lo = 1.0 / 8192,
            .rate_hi = 1.0 / 1024,
            .peak_factor_hi = 8,
            .mbs_hi = 16,
            .tight_share = 0.1,
            .tight_lo = 100,
            .tight_hi = 1500},
    .population = 560,
    .op_mix = {30, 30, 25, 15},
    .salt = 0x5167a1,
};
constexpr std::size_t kStormOps = 32;
constexpr rtcac::Tick kSimHorizon = 600000;

rtcac::FaultProfile faults() {
  rtcac::FaultProfile f;
  f.drop_probability = 0.02;
  f.duplicate_probability = 0.02;
  f.delay_probability = 0.05;
  f.max_delay = 8;
  f.reorder_probability = 0.02;
  f.max_jitter = 2;
  return f;
}

// A retry budget long enough that a SETUP or MODIFY times out only after
// nine consecutive lost rounds.
SignalingEngine::Timers timers() {
  SignalingEngine::Timers t;
  t.max_retries = 8;
  return t;
}

std::unique_ptr<RingWorld> build_world(std::uint64_t seed) {
  auto w = std::make_unique<RingWorld>(kSpec, seed);
  for (const ClientOp& op : w->population) {
    const auto r = w->cm->setup(op.request, w->routes[op.route]);
    if (r.accepted) w->live.push_back(Live{r.id, op.route, op.request, 0});
  }
  return w;
}

/// Signaling-layer totals over every storm of a section.
struct SignalingTotals {
  std::uint64_t messages = 0;
  double step_ns = 0;
  std::uint64_t signaled_ops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t modify_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t stale_dropped = 0;
  std::uint64_t lost = 0;
  std::uint64_t reconciled = 0;
};

class Client {
 public:
  Client(RingWorld& w, std::uint64_t seed, Inject inject)
      : w_(w), seed_(seed), inject_(inject), nodes_(w.ring_nodes()) {}

  /// Runs storms for `seconds` of measured CPU time (leak audits and host
  /// probes excluded); returns that time in seconds.
  double run(double seconds, OpSamples& samples, SpanLog* log,
             ProbeSamples& probes) {
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t start = cpu_ns();
    std::int64_t paused = 0;
    while (cpu_ns() - start - paused < budget) {
      paused += probes.sample_due();
      storm(samples, log);
      const std::int64_t t0 = cpu_ns();
      settle_and_audit();
      paused += cpu_ns() - t0;
    }
    return static_cast<double>(cpu_ns() - start - paused) / 1e9;
  }

  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t storms() const { return storms_; }
  [[nodiscard]] const SignalingTotals& totals() const { return totals_; }
  [[nodiscard]] const WalkStats& walks() const { return walks_; }
  [[nodiscard]] LayerSamples& derived() { return derived_; }

 private:
  struct Pending {
    std::int64_t start = 0;
    std::size_t live_index = 0;  ///< modify: the live entry to update
    std::uint32_t route = 0;
    QosRequest request;
  };
  using PendingMap = std::map<ConnectionId, Pending>;

  static double ns_between(std::int64_t t0, std::int64_t t1) {
    return static_cast<double>(t1 - t0);
  }

  void storm(OpSamples& samples, SpanLog* log) {
    ConnectionManager& cm = *w_.cm;
    rtcac::FaultInjector injector(seed_ * 0x2545F4914F6CDD1DULL + storms_++,
                                  faults());
    SignalingEngine engine(cm, timers(), &injector);
    PendingMap setups;
    PendingMap modifies;
    PendingMap releases;
    std::set<ConnectionId> busy;

    for (std::size_t k = 0; k < kStormOps; ++k) {
      const ClientOp& op = w_.stream[cursor_++ % w_.stream.size()];
      try {
        launch(op, engine, samples, log, setups, modifies, releases, busy);
      } catch (const std::exception&) {
        ++failed_;
      }
    }

    std::size_t seen_modifies = modify_finishes(engine);
    std::size_t seen_outcomes = engine.outcomes().size();
    const std::int64_t steps_start = cpu_ns();
    while (engine.step()) {
      const std::int64_t now = cpu_ns();
      const rtcac::SignalingMessage& m = engine.trace().back();
      if (engine.outcomes().size() != seen_outcomes) {
        seen_outcomes = engine.outcomes().size();
        finish_setups(engine, setups, now, samples, /*all=*/false);
      }
      const std::size_t finishes = modify_finishes(engine);
      if (finishes != seen_modifies) {
        seen_modifies = finishes;
        if ((m.type == SignalingMessageType::kModified ||
             m.type == SignalingMessageType::kModifyReject) &&
            modifies.contains(m.id)) {
          finish_modify(engine, modifies, m.id, now, samples);
        }
      }
      if (m.type == SignalingMessageType::kRelease && releases.contains(m.id) &&
          !cm.connections().contains(m.id)) {
        samples.release.add(now - releases.at(m.id).start);
        releases.erase(m.id);
      }
    }
    const std::int64_t end = cpu_ns();
    totals_.step_ns += ns_between(steps_start, end);

    // Quiesced: whatever is still pending finished on a timer (timeouts),
    // and a RELEASE still pending was lost in transit.
    finish_setups(engine, setups, end, samples, /*all=*/true);
    while (!modifies.empty()) {
      finish_modify(engine, modifies, modifies.begin()->first, end, samples);
    }
    for (const auto& [id, p] : releases) {
      if (inject_ == Inject::kLeak && totals_.reconciled == 0) {
        inject_ = Inject::kNone;  // leave this one lost RELEASE unreconciled
        continue;
      }
      (void)cm.teardown(id);
      ++totals_.reconciled;
      samples.release.add(cpu_ns() - p.start);
    }
    (void)cm.reclaim(static_cast<double>(engine.now() + engine.timers().lease + 1));

    const SignalingEngine::Counters& c = engine.counters();
    totals_.messages += engine.trace().size();
    totals_.retransmits += c.retransmits;
    totals_.modify_retransmits += c.modify_retransmits;
    totals_.timeouts += c.timeouts;
    totals_.stale_dropped += c.stale_dropped;
    totals_.lost += c.lost_to_faults;
  }

  static std::size_t modify_finishes(const SignalingEngine& engine) {
    std::size_t n = engine.counters().modifies_completed;
    for (const auto& [code, count] : engine.counters().modify_rejects_by_reason) {
      n += count;
    }
    return n;
  }

  void launch(const ClientOp& op, SignalingEngine& engine, OpSamples& samples,
              SpanLog* log, PendingMap& setups, PendingMap& modifies,
              PendingMap& releases, std::set<ConnectionId>& busy) {
    ConnectionManager& cm = *w_.cm;
    switch (op.kind) {
      case OpKind::kCheck: {
        if (log != nullptr) {
          (void)probe_walk(cm, w_.hops[op.route], w_.eval_hops[op.route],
                           op.request, *log, derived_, walks_);
        }
        const std::int64_t t0 = cpu_ns();
        (void)cm.check(op.request, w_.routes[op.route]);
        samples.check.add(cpu_ns() - t0);
        return;
      }
      case OpKind::kSetup: {
        const std::int64_t t0 = cpu_ns();
        const ConnectionId id = engine.initiate(op.request, w_.routes[op.route]);
        setups.emplace(id, Pending{t0, 0, op.route, op.request});
        ++totals_.signaled_ops;
        return;
      }
      case OpKind::kRelease:
      case OpKind::kModify:
        break;
    }
    // Release/modify act on a live connection no other op of this storm
    // touches; the first free one at or after the pick.
    if (w_.live.empty()) return;
    std::size_t pick = op.pick % w_.live.size();
    for (std::size_t tries = 0; busy.contains(w_.live[pick].id); ++tries) {
      if (tries == w_.live.size()) return;
      pick = (pick + 1) % w_.live.size();
    }
    const ConnectionId id = w_.live[pick].id;
    busy.insert(id);
    ++totals_.signaled_ops;
    const std::int64_t t0 = cpu_ns();
    if (op.kind == OpKind::kModify) {
      if (!engine.modify(id, op.request)) {
        throw std::logic_error("modify refused for a live connection");
      }
      modifies.emplace(id, Pending{t0, pick, w_.live[pick].route, op.request});
      return;
    }
    if (!engine.release(id)) {
      throw std::logic_error("release refused for a live connection");
    }
    releases.emplace(id, Pending{t0, 0, w_.live[pick].route, {}});
    // Retire the entry after the storm: live indices held by pending
    // modifies stay valid until then.
    doomed_.push_back(pick);
  }

  void finish_setups(const SignalingEngine& engine, PendingMap& setups,
                     std::int64_t now, OpSamples& samples, bool all) {
    for (auto it = setups.begin(); it != setups.end();) {
      const auto outcome = engine.outcomes().find(it->first);
      if (outcome == engine.outcomes().end()) {
        if (all) throw GateFailure("signaling: a SETUP ended without outcome");
        ++it;
        continue;
      }
      samples.connect.add(now - it->second.start);
      ++samples.setups;
      if (outcome->second.connected) {
        ++samples.admitted;
        new_live_.push_back(
            Live{it->first, it->second.route, it->second.request, 0});
      } else if (outcome->second.reject.code == rtcac::RejectCode::kTimeout) {
        ++failed_;
      }
      it = setups.erase(it);
    }
  }

  void finish_modify(const SignalingEngine& engine, PendingMap& modifies,
                     ConnectionId id, std::int64_t now, OpSamples& samples) {
    const Pending p = modifies.at(id);
    modifies.erase(id);
    samples.modify.add(now - p.start);
    const auto outcome = engine.modify_outcome(id);
    if (!outcome.has_value()) {
      throw GateFailure("signaling: a MODIFY ended without outcome");
    }
    if (outcome->connected) {
      w_.live[p.live_index].request = p.request;
    } else if (outcome->reject.code == rtcac::RejectCode::kTimeout) {
      ++failed_;
    }
  }

  /// Applies the storm's releases and setups to the live list, then the
  /// leak gate.
  void settle_and_audit() {
    std::sort(doomed_.begin(), doomed_.end(), std::greater<>());
    for (const std::size_t i : doomed_) {
      w_.live[i] = w_.live.back();
      w_.live.pop_back();
    }
    doomed_.clear();
    w_.live.insert(w_.live.end(), new_live_.begin(), new_live_.end());
    new_live_.clear();
    audit_reservations(w_.live, w_.hops, nodes_, w_.held(),
                       "signaled_cells after RELEASE", Inject::kNone);
  }

  RingWorld& w_;
  std::uint64_t seed_;
  Inject inject_;
  std::vector<rtcac::NodeId> nodes_;
  std::size_t cursor_ = 0;  ///< next stream op (cyclic)
  std::uint64_t storms_ = 0;
  std::uint64_t failed_ = 0;
  SignalingTotals totals_;
  WalkStats walks_;
  LayerSamples derived_;
  std::vector<std::size_t> doomed_;
  std::vector<Live> new_live_;
};

}  // namespace

Outcome run_signaled_cells(const Options& options) {
  RunRecord record;
  record.rss_start_mb = rss_mb(/*peak=*/false);
  const std::unique_ptr<RingWorld> w = timed_setup(
      record.setup_s, [&] { return build_world(options.seed); });
  record.sim = soundness_gate(w->net->topology(), kSpec.advertised_bound,
                              w->live, w->routes, w->hops, w->bound(),
                              kSimHorizon, options.inject, /*timed=*/true);

  Client client(*w, options.seed, options.inject);
  measure(options, record, [&](double seconds, OpSamples& samples, SpanLog* log) {
    return client.run(seconds, samples, log, record.probes);
  });
  record.failed = client.failed();

  const SignalingTotals& t = client.totals();
  std::cerr << "signaled_cells: " << client.storms() << " storms, "
            << w->live.size() << " live connections at the end, "
            << t.messages << " messages, " << t.lost << " lost, "
            << t.reconciled << " RELEASEs reconciled, " << client.failed()
            << " failed ops\n";
  record.sim.add_untimed(soundness_gate(
      w->net->topology(), kSpec.advertised_bound, w->live, w->routes, w->hops,
      w->bound(), kSimHorizon, options.inject, /*timed=*/false));

  if (options.trace) {
    Counters& c = record.counters;
    add_walk_counters(client.walks(), record.traced.ops(), c);
    const double ops = static_cast<double>(t.signaled_ops);
    c["signaling.msgs_per_op"] =
        ops > 0 ? static_cast<double>(t.messages) / ops : 0;
    c["signaling.retransmits"] = static_cast<double>(t.retransmits);
    c["signaling.modify_retransmits"] = static_cast<double>(t.modify_retransmits);
    c["signaling.timeouts"] = static_cast<double>(t.timeouts);
    c["signaling.stale_dropped"] = static_cast<double>(t.stale_dropped);
    c["signaling.msgs_lost"] = static_cast<double>(t.lost);
    c["signaling.releases_reconciled"] = static_cast<double>(t.reconciled);
    c["signaling.ns_per_msg"] =
        t.messages > 0 ? t.step_ns / static_cast<double>(t.messages) : 0;
    record.derived = std::move(client.derived());
    record.points = w->points();
  }
  return report(options, record);
}

}  // namespace rtbench
