// The three workloads and the pieces they share: the RTnet ring world of
// serial_churn and signaled_cells, the traced probe of one hop walk
// through the public layer functions, the sampled cached-vs-from-scratch
// check gate, and the decision-stream comparison.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/path_eval.h"
#include "core/switch_cac.h"
#include "layers.h"
#include "net/admission_engine.h"
#include "net/connection_manager.h"
#include "rtnet/rtnet.h"
#include "trace.h"

namespace rtbench {

Outcome run_serial_churn(const Options& options);
Outcome run_parallel_mixed(const Options& options);
Outcome run_signaled_cells(const Options& options);

/// Shape of an RTnet ring workload.
struct RingSpec {
  std::size_t ring_nodes = 16;
  std::size_t terminals_per_node = 4;
  std::size_t max_ring_hops = 8;  ///< routes span 1..max_ring_hops
  double advertised_bound = 2048;
  TrafficMix mix;
  std::size_t population = 0;  ///< standing connections offered at set-up
  std::array<unsigned, 4> op_mix = {30, 30, 25, 15};
  std::uint64_t salt = 0;      ///< separates the workloads' input streams
};

/// The RTnet star-ring (paper §5) with its point-to-point routes, a
/// ConnectionManager on it, and the generated inputs: the standing
/// population's setups and the cyclic op stream.
struct RingWorld {
  std::unique_ptr<rtcac::Rtnet> net;
  std::vector<Route> routes;
  std::vector<std::vector<rtcac::HopRef>> hops;                   // per route
  std::vector<std::vector<rtcac::PathEvaluator::Hop>> eval_hops;  // per route
  std::unique_ptr<rtcac::ConnectionManager> cm;
  std::vector<ClientOp> population;
  std::vector<ClientOp> stream;
  std::vector<Live> live;

  RingWorld(const RingSpec& spec, std::uint64_t seed);
  [[nodiscard]] std::vector<rtcac::NodeId> ring_nodes() const;
  [[nodiscard]] std::vector<const rtcac::SwitchCac*> points() const;
  [[nodiscard]] HeldFn held() const;
  [[nodiscard]] BoundFn bound() const;
};

/// Traced probe of the walk a ConnectionManager check/setup makes for
/// `request` over `hops`: PathEvaluator::evaluate, then per hop the
/// Alg. 3.1 arrival, SwitchCac::check, and multiplex/delay_bound over the
/// hop's real arrival aggregate.  Logs the spans, adds the derived
/// path_eval.self sample, and returns the evaluate span (ns).
double probe_walk(const rtcac::ConnectionManager& cm,
                  std::span<const rtcac::HopRef> hops,
                  std::span<const rtcac::PathEvaluator::Hop> eval_hops,
                  const QosRequest& request, SpanLog& log,
                  LayerSamples& derived, WalkStats& walks);

/// Sampled cache gate: at hop `hop_index`, SwitchCac::check must equal
/// check_from_scratch (verdict and every per-priority bound).  With
/// Inject::kStaleCache one cached bound is perturbed first, so the gate
/// must fire.  Throws GateFailure otherwise.
void check_against_scratch(const rtcac::ConnectionManager& cm,
                           std::span<const rtcac::HopRef> hops,
                           std::span<const rtcac::PathEvaluator::Hop> eval_hops,
                           const QosRequest& request, std::size_t hop_index,
                           Inject inject);

/// One decision as the decision gates compare it, kept compact because
/// serial_churn records one per measured op: the reason string is
/// compared by its 32-bit hash.
struct Verdict {
  bool accepted = false;
  rtcac::RejectCode code = rtcac::RejectCode::kNone;
  std::uint32_t hop = 0;
  std::uint32_t reason_hash = 0;

  static Verdict of(bool accepted, const std::string& reason,
                    const rtcac::RejectReason& reject);
  static Verdict of(const rtcac::AdmissionEngine::OpOutcome& outcome) {
    return of(outcome.accepted, outcome.reason, outcome.reject);
  }
  bool operator==(const Verdict&) const = default;
};

/// Decision-stream gate: verdicts, reasons, reject codes and hops must
/// match op for op.  With Inject::kCorruptOracle the reference is
/// corrupted first, so the gate must fire.  Throws GateFailure.
void require_identical(const std::vector<Verdict>& got,
                       std::vector<Verdict> want, Inject inject,
                       const std::string& what);

}  // namespace rtbench
