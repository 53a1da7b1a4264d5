#include <algorithm>
#include <functional>
#include <sstream>

#include "core/bitstream.h"
#include "core/delay_bound.h"
#include "core/stream_ops.h"
#include "workloads.h"

namespace rtbench {

using rtcac::BitStream;
using rtcac::PathEvaluator;
using rtcac::RejectCode;
using rtcac::SwitchCac;

namespace {

// Results of probes whose value is unused are folded in here so the
// calls cannot be optimized away.
volatile std::size_t g_sink = 0;

}  // namespace

RingWorld::RingWorld(const RingSpec& spec, std::uint64_t seed) {
  rtcac::RtnetConfig config;
  config.ring_nodes = spec.ring_nodes;
  config.terminals_per_node = spec.terminals_per_node;
  net = std::make_unique<rtcac::Rtnet>(config);
  for (std::size_t node = 0; node < spec.ring_nodes; ++node) {
    for (std::size_t t = 0; t < spec.terminals_per_node; ++t) {
      for (std::size_t h = 1; h <= spec.max_ring_hops; ++h) {
        routes.push_back(net->unicast_route(node, t, (node + h) % spec.ring_nodes));
      }
    }
  }
  rtcac::Xorshift rng(seed * 0x9E3779B97F4A7C15ULL + spec.salt);
  population = generate_ops(rng, spec.population, {0, 1, 0, 0}, routes.size(),
                            spec.mix);
  stream = generate_ops(rng, kStreamOps, spec.op_mix, routes.size(), spec.mix);
  cm = std::make_unique<rtcac::ConnectionManager>(
      net->topology(), manager_params(spec.advertised_bound));
  for (const Route& route : routes) {
    hops.push_back(cm->queueing_points(route));
    eval_hops.push_back(cm->eval_hops(hops.back()));
  }
}

std::vector<rtcac::NodeId> RingWorld::ring_nodes() const {
  std::vector<rtcac::NodeId> nodes;
  for (std::size_t i = 0; i < net->config().ring_nodes; ++i) {
    nodes.push_back(net->ring_node(i));
  }
  return nodes;
}

std::vector<const SwitchCac*> RingWorld::points() const {
  std::vector<const SwitchCac*> out;
  for (const rtcac::NodeId node : ring_nodes()) out.push_back(&cm->switch_cac(node));
  return out;
}

HeldFn RingWorld::held() const {
  return [this](rtcac::NodeId node) { return cm->switch_cac(node).connection_ids(); };
}

BoundFn RingWorld::bound() const {
  return [this](rtcac::NodeId node, std::size_t port, Priority prio) {
    return cm->switch_cac(node).computed_bound(port, prio);
  };
}

double probe_walk(const rtcac::ConnectionManager& cm,
                  std::span<const rtcac::HopRef> hops,
                  std::span<const PathEvaluator::Hop> eval_hops,
                  const QosRequest& request, SpanLog& log,
                  LayerSamples& derived, WalkStats& walks) {
  const PathEvaluator& ev = cm.evaluator();
  // Pass 1, per hop, in the state the previous op left: the Alg. 3.1
  // arrival, SwitchCac::check (paying any lazy cache rebuild a mutation
  // left behind, as the engine's own walk would), and the stream algebra
  // over the hop's real arrival aggregate.
  std::vector<BitStream> arrivals;
  arrivals.reserve(hops.size());
  std::vector<double> arrival_ns(hops.size());
  for (std::size_t h = 0; h < hops.size(); ++h) {
    const rtcac::HopRef& hop = hops[h];
    const SwitchCac& sw = cm.switch_cac(hop.node);
    const double cdv = ev.cdv_before(eval_hops, h, request.priority);
    arrivals.push_back(log.record(
        "stream_ops.arrival",
        [&] { return PathEvaluator::bitstream_arrival(request.traffic, cdv); },
        &arrival_ns[h]));
    const BitStream& arrival = arrivals.back();
    const rtcac::SwitchCheckResult verdict = log.record("switch_cac.check", [&] {
      return sw.check(hop.in_port, hop.out_port, request.priority, arrival);
    });
    const BitStream& aggregate =
        sw.arrival_aggregate(hop.in_port, hop.out_port, request.priority);
    derived["stream_ops.aggregate_segments"].push_back(
        static_cast<double>(aggregate.size()));
    const BitStream mux = log.record("stream_ops.multiplex", [&] {
      return rtcac::multiplex(aggregate, arrival);
    });
    const std::optional<double> bound = log.record(
        "stream_ops.delay_bound", [&] { return rtcac::delay_bound(mux, BitStream{}); });
    g_sink = g_sink + mux.size() + (verdict.admitted ? 1 : 0) +
             (bound.has_value() ? 1 : 0);
  }

  // Pass 2, on the now-warm caches the engine call that follows also
  // sees: the whole walk, then its per-hop checks again, so the walk's
  // self time is evaluate minus children measured in the same state.
  double eval_ns = 0;
  const PathEvaluator::Decision decision = log.record(
      "path_eval.evaluate", [&] { return ev.evaluate(eval_hops, request); },
      &eval_ns);
  std::size_t visited = hops.size();
  if (decision.reject.code == RejectCode::kAdmission) {
    visited = decision.reject.hop + 1;
  } else if (decision.reject.code == RejectCode::kPriority) {
    visited = 0;
  }
  ++walks.calls;
  walks.hops += visited;
  double children_ns = 0;
  for (std::size_t h = 0; h < visited; ++h) {
    const rtcac::HopRef& hop = hops[h];
    const std::int64_t t0 = now_ns();
    const rtcac::SwitchCheckResult verdict = cm.switch_cac(hop.node).check(
        hop.in_port, hop.out_port, request.priority, arrivals[h]);
    children_ns += static_cast<double>(now_ns() - t0) + arrival_ns[h];
    g_sink = g_sink + (verdict.admitted ? 1 : 0);
  }
  derived["path_eval.self"].push_back(eval_ns - children_ns);
  return eval_ns;
}

void check_against_scratch(const rtcac::ConnectionManager& cm,
                           std::span<const rtcac::HopRef> hops,
                           std::span<const PathEvaluator::Hop> eval_hops,
                           const QosRequest& request, std::size_t hop_index,
                           Inject inject) {
  const rtcac::HopRef& hop = hops[hop_index];
  const SwitchCac& sw = cm.switch_cac(hop.node);
  const BitStream arrival = PathEvaluator::bitstream_arrival(
      request.traffic,
      cm.evaluator().cdv_before(eval_hops, hop_index, request.priority));
  rtcac::SwitchCheckResult fast =
      sw.check(hop.in_port, hop.out_port, request.priority, arrival);
  const rtcac::SwitchCheckResult slow =
      sw.check_from_scratch(hop.in_port, hop.out_port, request.priority,
                            arrival);
  if (inject == Inject::kStaleCache) {
    auto bounded = std::find_if(fast.bounds.begin(), fast.bounds.end(),
                                [](const auto& b) { return b.has_value(); });
    if (bounded != fast.bounds.end()) {
      **bounded += 1;
    } else {
      fast.admitted = !fast.admitted;
    }
  }
  bool same = fast.admitted == slow.admitted &&
              fast.bounds.size() == slow.bounds.size();
  for (std::size_t q = 0; same && q < fast.bounds.size(); ++q) {
    const auto& a = fast.bounds[q];
    const auto& b = slow.bounds[q];
    same = a.has_value() == b.has_value() &&
           (!a.has_value() ||
            rtcac::NumTraits<double>::nearly_equal(*a, *b));
  }
  if (!same) {
    std::ostringstream msg;
    msg << "cache gate: SwitchCac::check differs from check_from_scratch at "
           "node "
        << hop.node << " for " << request.to_string();
    throw GateFailure(msg.str());
  }
}

Verdict Verdict::of(bool accepted, const std::string& reason,
                    const rtcac::RejectReason& reject) {
  return Verdict{accepted, reject.code, static_cast<std::uint32_t>(reject.hop),
                 static_cast<std::uint32_t>(std::hash<std::string>{}(reason))};
}

void require_identical(const std::vector<Verdict>& got,
                       std::vector<Verdict> want, Inject inject,
                       const std::string& what) {
  if (inject == Inject::kCorruptOracle && !want.empty()) {
    want.back().accepted = !want.back().accepted;
  }
  if (got.size() != want.size()) {
    throw GateFailure("decision gate [" + what + "]: " +
                      std::to_string(got.size()) + " outcomes vs " +
                      std::to_string(want.size()));
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      std::ostringstream msg;
      msg << "decision gate [" << what << "]: op " << i << " got "
          << (got[i].accepted ? "accept" : "reject") << " ("
          << rtcac::to_string(got[i].code) << "), reference "
          << (want[i].accepted ? "accept" : "reject") << " ("
          << rtcac::to_string(want[i].code) << ")";
      throw GateFailure(msg.str());
    }
  }
}

}  // namespace rtbench
