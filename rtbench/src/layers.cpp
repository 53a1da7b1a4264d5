#include "layers.h"

namespace rtbench {

namespace {

double pct(LayerSamples& samples, const std::string& name, double p) {
  const auto it = samples.find(name);
  return it == samples.end() ? 0.0 : percentile(it->second, p);
}

double counter(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

// Every end-to-end time is CPU time scaled to the reference host by the
// probes taken alongside it (setup_s and cells_per_s are scaled where they
// are measured).
std::vector<Metric> end_to_end_metrics(const RunRecord& r) {
  const OpSamples& ops = r.untraced;
  const double scale = r.probes.scale();
  const auto us = [&](const Histogram& h, double p) {
    return h.percentile(p) / 1e3 * scale;
  };
  return {
      {"setup_s", r.setup_s, "s"},
      {"connect_p50_us", us(ops.connect, 50), "us"},
      {"connect_p99_us", us(ops.connect, 99), "us"},
      {"check_p50_us", us(ops.check, 50), "us"},
      {"check_p99_us", us(ops.check, 99), "us"},
      {"modify_p50_us", us(ops.modify, 50), "us"},
      {"modify_p99_us", us(ops.modify, 99), "us"},
      {"release_p50_us", us(ops.release, 50), "us"},
      {"release_p99_us", us(ops.release, 99), "us"},
      {"ops_per_s", static_cast<double>(ops.ops()) / (r.untraced_s * scale),
       "ops/s"},
      {"admit_ratio",
       ops.setups == 0 ? 0.0
                       : static_cast<double>(ops.admitted) /
                             static_cast<double>(ops.setups),
       "fraction"},
      {"peak_rss_mb", r.rss_peak_mb - r.rss_start_mb, "MiB"},
      {"cells_per_s", r.sim.cells_per_s, "cells/s"},
  };
}

void add_arena_counters(const std::vector<const rtcac::SwitchCac*>& points,
                        Counters& counters) {
  double acquires = 0;
  double reuses = 0;
  double peak = 0;
  for (const rtcac::SwitchCac* sw : points) {
    const rtcac::CacArenaStats st = sw->arena_stats();
    acquires += static_cast<double>(st.arena_acquires);
    reuses += static_cast<double>(st.arena_reuses);
    peak += static_cast<double>(st.peak_segments);
  }
  counters["switch_cac.arena_reuse_ratio"] =
      acquires > 0 ? reuses / acquires : 0;
  counters["switch_cac.tree_segments_peak"] = peak;
}

std::vector<Metric> per_layer_metrics(LayerSamples& s, const Counters& c) {
  return {
      {"stream_ops.arrival_ns_p50", pct(s, "stream_ops.arrival", 50), "ns"},
      {"stream_ops.arrival_ns_p99", pct(s, "stream_ops.arrival", 99), "ns"},
      {"stream_ops.multiplex_ns_p50", pct(s, "stream_ops.multiplex", 50), "ns"},
      {"stream_ops.delay_bound_ns_p50", pct(s, "stream_ops.delay_bound", 50),
       "ns"},
      {"stream_ops.aggregate_segments_p50",
       pct(s, "stream_ops.aggregate_segments", 50), "segments"},
      {"stream_ops.aggregate_segments_max",
       pct(s, "stream_ops.aggregate_segments", 100), "segments"},
      {"switch_cac.check_ns_p50", pct(s, "switch_cac.check", 50), "ns"},
      {"switch_cac.check_ns_p99", pct(s, "switch_cac.check", 99), "ns"},
      {"switch_cac.check_calls", counter(c, "switch_cac.check_calls"),
       "calls/op"},
      {"switch_cac.arena_reuse_ratio", counter(c, "switch_cac.arena_reuse_ratio"),
       "ratio"},
      {"switch_cac.tree_segments_peak",
       counter(c, "switch_cac.tree_segments_peak"), "segments"},
      {"path_eval.evaluate_ns_p50", pct(s, "path_eval.evaluate", 50), "ns"},
      {"path_eval.evaluate_ns_p99", pct(s, "path_eval.evaluate", 99), "ns"},
      {"path_eval.hops_per_call", counter(c, "path_eval.hops_per_call"),
       "hops"},
      {"path_eval.self_ns_p50", pct(s, "path_eval.self", 50), "ns"},
      {"connection_manager.setup_self_ns_p50",
       pct(s, "connection_manager.setup_self", 50), "ns"},
      {"connection_manager.teardown_ns_p50",
       pct(s, "connection_manager.teardown", 50), "ns"},
      {"connection_manager.renegotiate_ns_p50",
       pct(s, "connection_manager.renegotiate", 50), "ns"},
      {"admission_engine.setup_ns_p50", pct(s, "admission_engine.setup", 50),
       "ns"},
      {"concurrent_cac.check_hop_ns_p50", pct(s, "concurrent_cac.check_hop", 50),
       "ns"},
      {"concurrent_cac.check_hop_ns_p99", pct(s, "concurrent_cac.check_hop", 99),
       "ns"},
      {"concurrent_cac.commit_ns_p50", pct(s, "concurrent_cac.commit", 50),
       "ns"},
      {"concurrent_cac.commit_ns_p99", pct(s, "concurrent_cac.commit", 99),
       "ns"},
      {"concurrent_cac.contention_ratio",
       counter(c, "concurrent_cac.contention_ratio"), "ratio"},
      {"concurrent_cac.off_cpu_share",
       counter(c, "concurrent_cac.off_cpu_share"), "ratio"},
      {"signaling.msgs_per_op", counter(c, "signaling.msgs_per_op"), "msgs/op"},
      {"signaling.retransmits", counter(c, "signaling.retransmits"), "count"},
      {"signaling.modify_retransmits", counter(c, "signaling.modify_retransmits"),
       "count"},
      {"signaling.timeouts", counter(c, "signaling.timeouts"), "count"},
      {"signaling.stale_dropped", counter(c, "signaling.stale_dropped"),
       "count"},
      {"signaling.msgs_lost", counter(c, "signaling.msgs_lost"), "count"},
      {"signaling.releases_reconciled",
       counter(c, "signaling.releases_reconciled"), "count"},
      {"signaling.ns_per_msg", counter(c, "signaling.ns_per_msg"), "ns"},
      {"sim.cells_delivered", counter(c, "sim.cells_delivered"), "cells"},
      {"sim.run_ns", counter(c, "sim.run_ns"), "ns"},
      {"sim.max_wait_over_bound", counter(c, "sim.max_wait_over_bound"),
       "ratio"},
      {"sim.drops", counter(c, "sim.drops"), "cells"},
      {"host.probe_ns_p50", counter(c, "host.probe_ns_p50"), "ns"},
      {"trace.untraced_ops_per_s", counter(c, "trace.untraced_ops_per_s"),
       "ops/s"},
      {"trace.traced_ops_per_s", counter(c, "trace.traced_ops_per_s"), "ops/s"},
      {"trace.overhead_ratio", counter(c, "trace.overhead_ratio"), "ratio"},
  };
}

}  // namespace

void measure(const Options& options, RunRecord& record,
             const Section& section) {
  reset_peak_rss();  // set-up and the timed simulations are behind us
  if (options.trace) {
    record.untraced_s =
        section(options.seconds / 2, record.untraced, nullptr);
    record.traced_s =
        section(options.seconds / 2, record.traced, &record.spans);
  } else {
    record.untraced_s = section(options.seconds, record.untraced, nullptr);
  }
  record.rss_peak_mb = rss_mb(/*peak=*/true);
}

void add_walk_counters(const WalkStats& walks, std::uint64_t ops,
                       Counters& counters) {
  counters["switch_cac.check_calls"] =
      ops > 0 ? static_cast<double>(walks.hops) / static_cast<double>(ops) : 0;
  counters["path_eval.hops_per_call"] =
      walks.calls > 0 ? static_cast<double>(walks.hops) /
                            static_cast<double>(walks.calls)
                      : 0;
}

Outcome report(const Options& options, RunRecord& r) {
  Outcome out;
  out.attempted = r.untraced.ops() + r.traced.ops() + r.side_ops;
  out.failed = r.failed;
  if (!options.trace) {
    out.metrics = end_to_end_metrics(r);
    return out;
  }
  LayerSamples& layer = r.derived;
  for (const SpanLog::Span& s : r.spans.spans()) {
    layer[s.name].push_back(s.ns);
  }
  Counters& c = r.counters;
  add_arena_counters(r.points, c);
  c["sim.cells_delivered"] = static_cast<double>(r.sim.cells);
  c["sim.run_ns"] = r.sim.run_ns;
  c["sim.max_wait_over_bound"] = r.sim.max_wait_over_bound;
  c["sim.drops"] = static_cast<double>(r.sim.drops);
  c["host.probe_ns_p50"] = median(r.probes.ns);
  const double untraced = static_cast<double>(r.untraced.ops()) / r.untraced_s;
  const double traced = static_cast<double>(r.traced.ops()) / r.traced_s;
  c["trace.untraced_ops_per_s"] = untraced;
  c["trace.traced_ops_per_s"] = traced;
  c["trace.overhead_ratio"] = traced > 0 ? untraced / traced - 1 : 0;
  out.metrics = per_layer_metrics(layer, c);
  return out;
}

}  // namespace rtbench
