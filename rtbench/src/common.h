// Shared harness pieces of the end-to-end benchmark: run options, the
// result record every workload returns, percentile and latency-histogram
// math, set-up timing, the reservation audit, the cell-level soundness
// gate and the workload's own peak RSS.

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <time.h>

#include "core/connection.h"
#include "core/traffic.h"
#include "net/connection_manager.h"
#include "net/topology.h"
#include "util/xorshift.h"

namespace rtbench {

using rtcac::ConnectionId;
using rtcac::Priority;
using rtcac::QosRequest;
using rtcac::Route;

/// Every workload runs four priority levels.
constexpr Priority kPriorities = 4;

/// Wall clock (ns): run deadlines shared between threads, and trace spans.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time the calling thread has run (ns): the clock of every
/// end-to-end time and throughput (then scaled by the host probe, see
/// ProbeSamples) and of the single-client sections' budgets.  Time the
/// host or the kernel gives this thread's CPU to someone else (hypervisor
/// steal, preemption by other processes) does not count; on a shared host
/// that time comes in phases that cover whole runs, and read on the wall
/// clock it put the run-to-run spread of tail latencies and of the
/// multi-client throughput past every bound.  Time a thread spends
/// blocked does not count either: parallel_mixed reports its clients'
/// off-CPU share per layer.  One read is a system call (about 0.4 us on a
/// 4-vCPU KVM guest).
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Deliberate corruptions that prove a correctness gate fires (harness
/// self-test); kNone in every measured run.
enum class Inject {
  kNone,
  kCorruptOracle,    ///< flip one decision of the reference stream
  kStaleCache,       ///< perturb one cached bound before the scratch gate
  kLeak,             ///< lose track of one connection's reservations
  kUndersizeBuffer,  ///< size simulated FIFOs below the advertised bound
  kShrinkBound,      ///< halve every computed bound the wait gate uses
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Inject inject = Inject::kNone;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): the op accounting of the
/// measured section and its metrics (end-to-end or per-layer, by mode).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// A decision mismatch or soundness violation: the run aborts with a
/// nonzero exit and prints no numbers.
class GateFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Nearest-rank percentile (p in [0, 100]) of `samples`; reorders them
/// (selection, O(n)).  0 for an empty set.
double percentile(std::vector<double>& samples, double p);

/// The same nearest-rank definition over an already sorted vector — the
/// reference the self-test checks percentile() against.
double percentile_sorted(const std::vector<double>& sorted, double p);

double median(std::vector<double> samples);

/// Host-speed probe: a fixed kernel that shares no code with the program,
/// a sort of 16k doubles and 8k std::map inserts (allocation and pointer
/// walks, like the engines' trees and queues), about 3.5 ms.  Returns its
/// CPU time (ns).
double probe_host();

/// probe_host() time that maps to a scale of 1: about its median on the
/// 4-vCPU host the baseline was taken on, in a quiet phase.
constexpr double kReferenceProbeNs = 3.5e6;

/// probe_host() samples taken alongside a measurement.
struct ProbeSamples {
  static constexpr std::int64_t kIntervalNs = 250'000'000;

  std::vector<double> ns;
  std::int64_t next = 0;  ///< cpu_ns() due for the next sample_due()

  void sample() { ns.push_back(probe_host()); }
  /// Samples when kIntervalNs of this thread's CPU time has passed since
  /// the last sample; returns the CPU time it took (0 when none is due),
  /// which the caller leaves out of its measured time.
  std::int64_t sample_due();
  void merge(const ProbeSamples& other) {
    ns.insert(ns.end(), other.ns.begin(), other.ns.end());
  }
  /// kReferenceProbeNs over the median sample: multiplies a CPU time
  /// measured alongside into reference-host time (1 with no samples).
  [[nodiscard]] double scale() const {
    return ns.empty() ? 1.0 : kReferenceProbeNs / median(ns);
  }
};

/// Log-linear histogram of non-negative integer latencies (ns): fixed
/// memory whatever the op count, so a faster program does not show a
/// larger RSS.  Values below 2^kSubBits are exact; above, each power of
/// two is split into 2^kSubBits buckets (relative width 1/512).
class Histogram {
 public:
  static constexpr int kSubBits = 9;
  static constexpr int kMaxBits = 40;  ///< larger values are clamped

  void add(std::int64_t value);
  void merge(const Histogram& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Nearest-rank percentile (p in [0, 100]): the midpoint of the bucket
  /// holding that rank, within half a bucket width of the exact sample.
  /// 0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxBits - kSubBits + 1) << kSubBits;
  static std::size_t index(std::uint64_t value);
  static double midpoint(std::size_t index);

  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// Connection-request distribution of a workload.
struct TrafficMix {
  double cbr_share = 0.3;
  double rate_lo = 1.0 / 8192;  ///< SCR (VBR) or PCR (CBR) range
  double rate_hi = 1.0 / 1024;
  double peak_factor_hi = 8;    ///< VBR PCR = SCR * U[2, peak_factor_hi]
  std::uint32_t mbs_hi = 16;    ///< VBR MBS in [2, mbs_hi]
  double tight_share = 0.1;     ///< requests with a finite deadline
  double tight_lo = 100;        ///< finite deadline range, cell times
  double tight_hi = 1500;
};

QosRequest random_request(rtcac::Xorshift& rng, const TrafficMix& mix);

/// The serial engine's parameters shared by every workload.
rtcac::ConnectionManager::Params manager_params(double advertised_bound);

/// Client operations, in the order of the per-workload mix weights.
enum class OpKind : std::uint8_t { kCheck, kSetup, kRelease, kModify };

/// One generated client op.  `route` indexes the workload's route table;
/// `pick` selects the live connection a release/modify acts on.
struct ClientOp {
  OpKind kind = OpKind::kCheck;
  std::uint32_t route = 0;
  std::uint64_t pick = 0;
  QosRequest request;
};

/// Op streams are this long and replayed cyclically, so the inputs stay
/// small and no run can exhaust them.
constexpr std::size_t kStreamOps = 8192;

/// `count` ops drawn from the weights {check, setup, release, modify}.
std::vector<ClientOp> generate_ops(rtcac::Xorshift& rng, std::size_t count,
                                   const std::array<unsigned, 4>& weights,
                                   std::size_t routes, const TrafficMix& mix);

/// Per-op latencies (CPU ns) of one measured section.
struct OpSamples {
  Histogram connect;
  Histogram check;
  Histogram modify;
  Histogram release;
  std::uint64_t setups = 0;
  std::uint64_t admitted = 0;

  void merge(const OpSamples& other);
  [[nodiscard]] std::uint64_t ops() const {
    return connect.count() + check.count() + modify.count() +
           release.count();
  }
};

/// A connection a client holds: `tag` is the workload's handle on the op
/// that created it (trace index or issue sequence).
struct Live {
  ConnectionId id = rtcac::kInvalidConnection;
  std::uint32_t route = 0;
  QosRequest request;
  std::uint64_t tag = 0;
};

/// Timed repetitions (set-ups, simulations) run at least kMinRepeats
/// times and until they have taken the given CPU seconds in all, so a
/// short one is sampled as often as a long one.
constexpr std::size_t kMinRepeats = 3;
constexpr double kSetupSeconds = 2;
constexpr double kSimSeconds = 4;

/// Median of repeated set-ups (see kSetupSeconds), in reference-host
/// seconds (CPU time scaled by the probes taken before each and after the
/// last), through `setup_s`.  The previous product is freed before each
/// repetition, outside the timing, so no two exist at once.  The last
/// product is returned.
template <typename Build>
auto timed_setup(double& setup_s, Build build) {
  decltype(build()) product;
  std::vector<double> times;
  ProbeSamples probes;
  double total = 0;
  while (times.size() < kMinRepeats || total < kSetupSeconds) {
    product = nullptr;
    probes.sample();
    const std::int64_t t0 = cpu_ns();
    product = build();
    times.push_back(static_cast<double>(cpu_ns() - t0) / 1e9);
    total += times.back();
  }
  probes.sample();
  setup_s = median(times) * probes.scale();
  return product;
}

/// Resident set of this process, MiB: VmRSS now, or the VmHWM peak.
double rss_mb(bool peak);

/// Restarts VmHWM from the current resident set, so the next peak read
/// covers only what runs after this call.
void reset_peak_rss();

/// Reservations each queueing point holds.
using HeldFn = std::function<std::vector<ConnectionId>(rtcac::NodeId)>;

/// Leak gate: every node of `nodes` holds exactly the reservations of
/// the `live` connections whose hops (`hops[route]`) cross it.  With
/// Inject::kLeak the first live connection is left out, as if its client
/// had lost track of it, so the gate must fire.  Throws GateFailure.
void audit_reservations(
    const std::vector<Live>& live,
    const std::vector<std::vector<rtcac::HopRef>>& hops,
    const std::vector<rtcac::NodeId>& nodes, const HeldFn& held,
    const std::string& what, Inject inject);

/// Computed worst-case bound of queue (node, out_port, priority) under
/// the final admitted load; nullopt when unbounded.
using BoundFn =
    std::function<std::optional<double>(rtcac::NodeId, std::size_t, Priority)>;

struct SimReport {
  std::uint64_t cells = 0;         ///< delivered per simulation
  std::uint64_t drops = 0;
  double max_wait_over_bound = 0;  ///< worst queue: measured wait / bound
  double cells_per_s = 0;  ///< median over the repetitions, reference host
  double run_ns = 0;       ///< median CPU time of one simulation (raw)

  /// Folds in an untimed simulation's soundness figures.
  void add_untimed(const SimReport& other) {
    drops += other.drops;
    max_wait_over_bound =
        std::max(max_wait_over_bound, other.max_wait_over_bound);
  }
};

/// The paper's guarantee checked against cells: greedy phase-aligned
/// conforming sources for every `live` connection, FIFOs sized to the
/// advertised bound, `horizon` cell times.  Throws GateFailure on any
/// drop, any queue whose measured worst wait exceeds its computed bound,
/// or a connection that delivered nothing.  Inject::kUndersizeBuffer /
/// kShrinkBound corrupt the FIFO size / the bounds.
///
/// Untimed it simulates once.  Timed, the simulation is repeated (see
/// kSimSeconds), each repetition's rate scaled to the reference host by a
/// probe_host() taken just before it.  Before each repetition the heap's
/// free pages go back to the system, so each runs on fresh physical pages
/// and the median spans several memory layouts: with one layout per
/// process, four processes of one seed ran 83k to 124k cells/s.
SimReport soundness_gate(const rtcac::Topology& topology,
                         double advertised_bound,
                         const std::vector<Live>& live,
                         const std::vector<Route>& routes,
                         const std::vector<std::vector<rtcac::HopRef>>& hops,
                         const BoundFn& bound, rtcac::Tick horizon,
                         Inject inject, bool timed);

}  // namespace rtbench
