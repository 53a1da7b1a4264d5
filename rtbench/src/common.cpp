#include "common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <malloc.h>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "atm/source_scheduler.h"
#include "sim/simulator.h"

namespace rtbench {

namespace {

// Nearest rank: the smallest sample with at least p% of the set at or
// below it; a 1-based rank.
std::uint64_t nearest_rank(std::uint64_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::uint64_t r = rank < 1 ? 1 : static_cast<std::uint64_t>(rank);
  return std::min(r, n);
}

}  // namespace

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0;
  const auto nth = samples.begin() +
                   static_cast<std::ptrdiff_t>(nearest_rank(samples.size(), p) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

double median(std::vector<double> samples) { return percentile(samples, 50); }

std::size_t Histogram::index(std::uint64_t value) {
  constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  value = std::min(value, (std::uint64_t{1} << kMaxBits) - 1);
  if (value < kSub) return static_cast<std::size_t>(value);
  // value = mantissa << shift with mantissa in [kSub, 2 kSub).
  const int shift = std::bit_width(value) - 1 - kSubBits;
  const std::uint64_t mantissa = value >> shift;
  return static_cast<std::size_t>((static_cast<std::uint64_t>(shift + 1)
                                   << kSubBits) +
                                  mantissa - kSub);
}

double Histogram::midpoint(std::size_t index) {
  constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  if (index < kSub) return static_cast<double>(index);
  const int shift = static_cast<int>(index >> kSubBits) - 1;
  const double lower = std::ldexp(static_cast<double>(kSub + index % kSub), shift);
  return lower + (std::ldexp(1.0, shift) - 1) / 2;
}

void Histogram::add(std::int64_t value) {
  ++counts_[index(value < 0 ? 0 : static_cast<std::uint64_t>(value))];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const std::uint64_t rank = nearest_rank(count_, p);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return midpoint(i);
  }
  return midpoint(kBuckets - 1);
}

QosRequest random_request(rtcac::Xorshift& rng, const TrafficMix& mix) {
  QosRequest request;
  const double rate = rng.uniform(mix.rate_lo, mix.rate_hi);
  if (rng.chance(mix.cbr_share)) {
    request.traffic = rtcac::TrafficDescriptor::cbr(rate);
  } else {
    const double pcr = std::min(1.0, rate * rng.uniform(2, mix.peak_factor_hi));
    const auto mbs = static_cast<std::uint32_t>(2 + rng.below(mix.mbs_hi - 1));
    request.traffic = rtcac::TrafficDescriptor::vbr(pcr, rate, mbs);
  }
  request.priority = static_cast<Priority>(rng.below(kPriorities));
  if (rng.chance(mix.tight_share)) {
    request.deadline = rng.uniform(mix.tight_lo, mix.tight_hi);
  }
  return request;
}

rtcac::ConnectionManager::Params manager_params(double advertised_bound) {
  rtcac::ConnectionManager::Params p;
  p.priorities = kPriorities;
  p.advertised_bound = advertised_bound;
  return p;
}

std::vector<ClientOp> generate_ops(rtcac::Xorshift& rng, std::size_t count,
                                   const std::array<unsigned, 4>& weights,
                                   std::size_t routes, const TrafficMix& mix) {
  const unsigned total = weights[0] + weights[1] + weights[2] + weights[3];
  std::vector<ClientOp> ops(count);
  for (ClientOp& op : ops) {
    unsigned draw = static_cast<unsigned>(rng.below(total));
    std::size_t kind = 0;
    while (draw >= weights[kind]) draw -= weights[kind++];
    op.kind = static_cast<OpKind>(kind);
    op.route = static_cast<std::uint32_t>(rng.below(routes));
    op.pick = rng();
    op.request = random_request(rng, mix);
  }
  return ops;
}

void OpSamples::merge(const OpSamples& other) {
  connect.merge(other.connect);
  check.merge(other.check);
  modify.merge(other.modify);
  release.merge(other.release);
  setups += other.setups;
  admitted += other.admitted;
}

double probe_host() {
  static volatile double sink = 0;
  const std::int64_t t0 = cpu_ns();
  rtcac::Xorshift rng(0x9b0be);  // the same work every time
  std::vector<double> values(16384);
  for (double& v : values) v = rng.uniform();
  std::sort(values.begin(), values.end());
  std::map<std::uint64_t, double> table;
  for (std::size_t i = 0; i < 8192; ++i) table.emplace(rng(), values[i]);
  sink = sink + table.begin()->second;
  return static_cast<double>(cpu_ns() - t0);
}

std::int64_t ProbeSamples::sample_due() {
  const std::int64_t now = cpu_ns();
  if (now < next) return 0;
  sample();
  const std::int64_t after = cpu_ns();
  next = after + kIntervalNs;
  return after - now;
}

double rss_mb(bool peak) {
  const std::string key = peak ? "VmHWM:" : "VmRSS:";
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

void audit_reservations(const std::vector<Live>& live,
                        const std::vector<std::vector<rtcac::HopRef>>& hops,
                        const std::vector<rtcac::NodeId>& nodes,
                        const HeldFn& held, const std::string& what,
                        Inject inject) {
  std::map<rtcac::NodeId, std::set<ConnectionId>> expected;
  for (std::size_t i = inject == Inject::kLeak ? 1 : 0; i < live.size(); ++i) {
    const Live& l = live[i];
    for (const rtcac::HopRef& hop : hops[l.route]) {
      expected[hop.node].insert(l.id);
    }
  }
  for (const rtcac::NodeId node : nodes) {
    const std::vector<ConnectionId> ids = held(node);
    if (std::set<ConnectionId>(ids.begin(), ids.end()) != expected[node]) {
      throw GateFailure(what + ": node " + std::to_string(node) +
                        " holds leaked or missing reservations");
    }
  }
}

SimReport soundness_gate(const rtcac::Topology& topology,
                         double advertised_bound,
                         const std::vector<Live>& live,
                         const std::vector<Route>& routes,
                         const std::vector<std::vector<rtcac::HopRef>>& hops,
                         const BoundFn& bound, rtcac::Tick horizon,
                         Inject inject, bool timed) {
  const std::size_t capacity = inject == Inject::kUndersizeBuffer
                                   ? 1
                                   : static_cast<std::size_t>(advertised_bound) + 1;
  using Queue = std::tuple<rtcac::NodeId, std::size_t, Priority>;
  std::map<Queue, double> bounds;
  for (const Live& c : live) {
    for (const rtcac::HopRef& hop : hops[c.route]) {
      const Queue q{hop.node, hop.out_port, c.request.priority};
      if (bounds.contains(q)) continue;
      const std::optional<double> b = bound(hop.node, hop.out_port,
                                            c.request.priority);
      if (!b.has_value()) {
        throw GateFailure("soundness: admitted queue at node " +
                          std::to_string(hop.node) + " is unbounded");
      }
      bounds.emplace(q, inject == Inject::kShrinkBound ? *b / 2 : *b);
    }
  }

  SimReport report;
  std::vector<double> times;
  std::vector<double> rates;
  double total_ns = 0;
  const std::size_t min_repeats = timed ? kMinRepeats : 1;
  const double budget_ns = timed ? kSimSeconds * 1e9 : 0;
  while (times.size() < min_repeats || total_ns < budget_ns) {
    malloc_trim(0);
    const double probe_ns = timed ? probe_host() : kReferenceProbeNs;
    rtcac::SimNetwork::Options options;
    options.priorities = kPriorities;
    options.queue_capacity = capacity;
    rtcac::SimNetwork sim(topology, options);
    for (const Live& c : live) {
      sim.install(c.id, routes[c.route], c.request.priority,
                  std::make_unique<rtcac::GreedySourceScheduler>(
                      c.request.traffic));
    }
    const std::int64_t t0 = cpu_ns();
    sim.run_until(horizon);
    const double ns = static_cast<double>(cpu_ns() - t0);

    report.drops = sim.total_drops();
    if (report.drops != 0) {
      throw GateFailure("soundness: " + std::to_string(report.drops) +
                        " cells dropped from FIFOs of " +
                        std::to_string(capacity) + " cells");
    }
    std::uint64_t cells = 0;
    for (const Live& c : live) {
      const std::uint64_t delivered = sim.sink(c.id).delivered();
      if (delivered == 0) {
        throw GateFailure("soundness: connection " + std::to_string(c.id) +
                          " delivered no cells");
      }
      cells += delivered;
    }
    double worst = 0;
    for (const auto& [q, b] : bounds) {
      const auto& [node, port, prio] = q;
      const double wait = static_cast<double>(sim.max_port_wait(node, port, prio));
      if (wait > b + 1e-9) {
        std::ostringstream msg;
        msg << "soundness: queue (node " << node << ", port " << port
            << ", priority " << prio << ") waited " << wait
            << " cell times, computed bound " << b;
        throw GateFailure(msg.str());
      }
      if (b > 0) worst = std::max(worst, wait / b);
    }
    report.cells = cells;
    report.max_wait_over_bound = worst;
    times.push_back(ns);
    total_ns += ns;
    rates.push_back(static_cast<double>(cells) * 1e9 / ns * probe_ns /
                    kReferenceProbeNs);
  }
  report.run_ns = median(times);
  report.cells_per_s = median(rates);
  return report;
}

}  // namespace rtbench
