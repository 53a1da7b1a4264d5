// rtcac_perfbench: one workload per process, so every figure — peak RSS
// included — belongs to that workload alone.
//
//   rtcac_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--commit SHA] [--inject CORRUPTION]
//   rtcac_perfbench --selftest
//
// Prints a provenance line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  A decision
// mismatch or soundness violation exits 1 without printing numbers;
// --inject corrupts one gate's input on purpose so the self-test can
// prove the gate fires (see kInjections).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

#ifndef RTBENCH_BUILD_TYPE
#define RTBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rtbench;

// Each corruption, and the workloads whose gates it must trip.
struct Injection {
  const char* name;
  Inject inject;
  std::vector<std::string> workloads;
};
const std::vector<Injection> kInjections = {
    {"corrupt-oracle", Inject::kCorruptOracle, {"serial_churn", "parallel_mixed"}},
    {"stale-cache", Inject::kStaleCache, {"serial_churn"}},
    {"leak", Inject::kLeak, {"serial_churn", "parallel_mixed", "signaled_cells"}},
    {"undersize-buffer", Inject::kUndersizeBuffer,
     {"serial_churn", "parallel_mixed", "signaled_cells"}},
    {"shrink-bound", Inject::kShrinkBound,
     {"serial_churn", "parallel_mixed", "signaled_cells"}},
};

int usage() {
  std::cerr << "usage: rtcac_perfbench --workload serial_churn|parallel_mixed|"
               "signaled_cells --seed N --seconds S --trace 0|1 "
               "[--commit SHA] [--inject CORRUPTION]\n"
               "       rtcac_perfbench --selftest\n"
               "corruptions (and the workloads that have their gate):\n";
  for (const Injection& i : kInjections) {
    std::cerr << "  " << i.name << ":";
    for (const std::string& w : i.workloads) std::cerr << " " << w;
    std::cerr << "\n";
  }
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Shortest representation that reads back as the same double.
std::string json_number(double v) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Percentile math against an exact sort on synthetic samples: sizes from
// 1 to a few thousand, uniform, heavy-tailed and tied values.
int selftest() {
  rtcac::Xorshift rng(7);
  int failures = 0;
  for (const std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 4099u}) {
    for (int shape = 0; shape < 3; ++shape) {
      std::vector<double> v(n);
      for (double& x : v) {
        const double u = rng.uniform();
        x = shape == 0 ? u : shape == 1 ? 1.0 / (1e-3 + u)
                                        : static_cast<double>(rng.below(5));
      }
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      for (const double p : {0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
        std::vector<double> work = v;
        const double got = percentile(work, p);
        // Nearest rank by definition: at least p% of the samples are <= it
        // and fewer than p% are < it.
        const auto le = static_cast<double>(
            std::upper_bound(sorted.begin(), sorted.end(), got) - sorted.begin());
        const auto lt = static_cast<double>(
            std::lower_bound(sorted.begin(), sorted.end(), got) - sorted.begin());
        const double need = std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n)));
        const bool ok = got == percentile_sorted(sorted, p) && le >= need &&
                        lt < need;
        if (!ok) {
          std::cerr << "percentile mismatch: n=" << n << " shape=" << shape
                    << " p=" << p << "\n";
          ++failures;
        }
      }
    }
  }
  std::vector<double> empty;
  if (percentile(empty, 50) != 0) ++failures;

  // The latency histogram against the exact nearest rank: within half a
  // bucket (1/1024 of the value), exact below 2^kSubBits, and a merge of
  // two halves reads the same as one histogram of the whole.
  for (const std::size_t n : {1u, 2u, 10u, 100u, 1001u, 20000u}) {
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<double> v(n);
      Histogram whole;
      Histogram halves[2];
      for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform();
        const std::int64_t x =
            shape == 0   ? static_cast<std::int64_t>(rng.below(600))
            : shape == 1 ? static_cast<std::int64_t>(rng.below(10000000))
            : shape == 2 ? static_cast<std::int64_t>(1e9 / (1 + u * 1e6))
                         : static_cast<std::int64_t>(rng.below(5) * 1000 + 40000);
        v[i] = static_cast<double>(x);
        whole.add(x);
        halves[i % 2].add(x);
      }
      halves[0].merge(halves[1]);
      std::sort(v.begin(), v.end());
      for (const double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
        const double exact = percentile_sorted(v, p);
        const double got = whole.percentile(p);
        if (std::abs(got - exact) > exact / 1024 ||
            halves[0].percentile(p) != got || whole.count() != n) {
          std::cerr << "histogram mismatch: n=" << n << " shape=" << shape
                    << " p=" << p << " got " << got << " exact " << exact
                    << "\n";
          ++failures;
        }
      }
    }
  }
  if (Histogram().percentile(50) != 0) ++failures;
  std::cout << (failures == 0 ? "selftest: percentile and histogram math PASS\n"
                              : "selftest: percentile and histogram math FAIL\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  std::string commit = "unknown";
  std::string inject_name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--commit") {
        commit = value;
      } else if (arg == "--inject") {
        inject_name = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();
  if (!inject_name.empty()) {
    const auto it = std::find_if(
        kInjections.begin(), kInjections.end(),
        [&](const Injection& i) { return inject_name == i.name; });
    if (it == kInjections.end() ||
        std::find(it->workloads.begin(), it->workloads.end(),
                  options.workload) == it->workloads.end()) {
      return usage();
    }
    options.inject = it->inject;
  }

  Outcome (*run)(const Options&) = nullptr;
  if (options.workload == "serial_churn") {
    run = run_serial_churn;
  } else if (options.workload == "parallel_mixed") {
    run = run_parallel_mixed;
  } else if (options.workload == "signaled_cells") {
    run = run_signaled_cells;
  } else {
    return usage();
  }

  std::cout << "provenance {\"commit\": " << json_string(commit)
            << ", \"build_type\": " << json_string(RTBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(compiler())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << json_number(options.seconds)
            << ", \"traced\": " << (options.trace ? "true" : "false") << "}"
            << std::endl;

  Outcome outcome;
  try {
    outcome = run(options);
  } catch (const GateFailure& e) {
    std::cerr << "GATE FAILED: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (options.inject != Inject::kNone) {
    std::cerr << "error: injected corruption was not detected\n";
    return 1;
  }

  std::string metrics;
  for (const Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "error: metric " << m.name << " is not finite\n";
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << "{\"correct\": true, \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
