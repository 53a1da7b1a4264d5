// What one run measured and how it becomes metrics: the untraced and
// traced sections, the end-to-end metric set and the per-layer metric
// set.  Every workload reports the same fixed sets; a layer the workload
// does not exercise reads 0.

#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/switch_cac.h"
#include "trace.h"

namespace rtbench {

/// Samples (ns, or segment counts) by name: span durations plus the
/// self times derived from them per op.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// A workload's record of one run, turned into its Outcome by report().
struct RunRecord {
  ProbeSamples probes;  ///< the measured sections' probes, all threads
  double setup_s = 0;
  double rss_start_mb = 0;  ///< VmRSS before the first set-up
  double rss_peak_mb = 0;   ///< VmHWM of the measured section
  OpSamples untraced;
  OpSamples traced;
  double untraced_s = 0;
  double traced_s = 0;
  std::uint64_t side_ops = 0;  ///< attempted outside both sections
  std::uint64_t failed = 0;
  SimReport sim;
  // Traced runs only.
  SpanLog spans;
  LayerSamples derived;
  Counters counters;
  std::vector<const rtcac::SwitchCac*> points;  ///< for the arena counters
};

/// A measured section: runs ops for `seconds` of client CPU time (see
/// cpu_ns) into `samples`, every op traced into `log` unless it is null;
/// returns the CPU seconds measured, per client.
using Section = std::function<double(double seconds, OpSamples& samples,
                                     SpanLog* log)>;

/// Untraced: one section over the whole budget.  Traced: an untraced
/// half, then a traced half (their ops/s give the tracing overhead).
/// Records the peak RSS of the sections alone, before any gate allocates.
void measure(const Options& options, RunRecord& record, const Section& section);

/// Per-hop walks probed in a traced section: evaluate() calls and the
/// hops their walks visited (up to and including a rejecting hop).
struct WalkStats {
  std::uint64_t calls = 0;
  std::uint64_t hops = 0;
};

/// switch_cac.check_calls and path_eval.hops_per_call of a traced section.
void add_walk_counters(const WalkStats& walks, std::uint64_t ops,
                       Counters& counters);

/// The run's Outcome: the end-to-end metrics untraced, the per-layer
/// metrics traced.
Outcome report(const Options& options, RunRecord& record);

}  // namespace rtbench
