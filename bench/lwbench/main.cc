// lwbench: the repository's end-to-end benchmark driver binary.
//
//   lwbench selftest
//       Checks the measurement code itself: exact percentiles on known sample
//       sets and span self time on a synthetic nested trace.
//   lwbench run --workload W [--seed N] [--seconds S] [--trace 0|1]
//               [--tmpdir DIR] [--trace-out PREFIX]
//       Runs one workload and prints its result as one JSON line:
//       {"correct", "attempted", "failed", "metrics"} with the end-to-end
//       metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
//       an output check fails, naming the check on stderr.
//
// bench/lwbench/run.py builds this binary and is the one command to run.

#include <signal.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/lwbench/lwbench.h"

namespace lwbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Measured with tracing off.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_ops_s", "ops/s"}, {"lat_p50_ms", "ms"},          {"lat_p99_ms", "ms"},
    {"cpu_ms_per_op", "ms"},       {"peak_rss_mb", "MiB"},        {"store_resident_mb", "MiB"},
    {"setup_s", "s"},
};

// From the traced run. A metric that does not apply to a workload (fabric
// layers on search, search phases on fabric) reads 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"trace.overhead_frac", "ratio"},
    {"solver.unsat_extend_share", "ratio"},
    {"net.fabric_self_us", "us"},
    {"net.fabric_remote_p50_us", "us"},
    {"net.fabric_inproc_p50_us", "us"},
    {"net.client_encode_us", "us"},
    {"net.client_send_us", "us"},
    {"net.client_wait_us", "us"},
    {"net.client_release_us", "us"},
    {"pool.queue_wait_p50_us", "us"},
    {"pool.queue_wait_p99_us", "us"},
    {"pool.handoff_us", "us"},
    {"service.extend_us", "us"},
    {"service.release_us", "us"},
    {"guest.run_us", "us"},
    {"session.materialize_us", "us"},
    {"session.restore_us", "us"},
    {"session.unaccounted_ms", "ms"},
    {"session.guesses", "count"},
    {"fleet.contention_factor", "ratio"},
    {"fleet.solo_extend_us", "us"},
    {"engine.pages_materialized", "count"},
    {"engine.pages_restored", "count"},
    {"engine.cow_faults", "count"},
    {"engine.hot_promotions", "count"},
    {"engine.restore_mprotect_calls", "count"},
    {"engine.restore_runs", "count"},
    {"engine.restore_skip_ratio", "ratio"},
    {"store.publishes", "count"},
    {"store.dedup_hit_ratio", "ratio"},
    {"store.cross_session_dedup", "count"},
    {"store.release_shard_locks", "count"},
    {"store.blobs_recycled", "count"},
    {"search.construct_ms", "ms"},
    {"search.run_ms", "ms"},
    {"search.readback_ms", "ms"},
    {"search.destroy_ms", "ms"},
    {"ladder.compressions", "count"},
    {"ladder.compress_success_ratio", "ratio"},
    {"ladder.decompressions", "count"},
    {"ladder.spills", "count"},
    {"ladder.faultbacks", "count"},
    {"ladder.evictions", "count"},
    {"ladder.ram_over_logical", "ratio"},
};

// --- selftest ----------------------------------------------------------------

int g_selftest_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_selftest_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

int SelfTest() {
  // Exact nearest-rank percentiles.
  std::vector<uint64_t> hundred;
  for (uint64_t i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  Expect(PercentileSorted(hundred, 50) == 50, "p50 of 1..100 is 50");
  Expect(PercentileSorted(hundred, 90) == 90, "p90 of 1..100 is 90");
  Expect(PercentileSorted(hundred, 99) == 99, "p99 of 1..100 is 99");
  Expect(PercentileSorted(hundred, 100) == 100, "p100 of 1..100 is 100");
  Expect(PercentileSorted({7}, 99) == 7, "any percentile of one sample is that sample");
  Expect(PercentileSorted({}, 50) == 0, "empty set reads 0");
  Expect(PercentileSorted({10, 20, 30, 40}, 50) == 20, "p50 of 4 samples is the 2nd");
  Expect(PercentileSorted({10, 20, 30, 40}, 51) == 30, "p51 of 4 samples is the 3rd");
  // Values a power-of-two histogram would round up to 2048 stay exact.
  std::vector<uint64_t> odd = {1100, 1200, 1300, 1400, 1500, 1600, 1700, 1800, 1900, 2000};
  Expect(PercentileSorted(odd, 50) == 1500, "p50 is a sample, not a bucket edge");
  Expect(PercentileSorted(odd, 90) == 1900, "p90 is a sample, not a bucket edge");
  Expect(Near(Median({3, 1, 2}), 2), "median of an odd set");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of an even set");

  // Self time on a nested trace: root [0,100] with children A [10,30] and
  // B [20,50] (overlapping, as pipelined requests are); A has a grandchild
  // [12,15]; one span outside the window.
  Tracer tracer(true, 1);
  int32_t root = tracer.Add("root", 1, -1, 1000, 1100);
  int32_t a = tracer.Add("a", 1, root, 1010, 1030);
  tracer.Add("b", 1, root, 1020, 1050);
  tracer.Add("g", 1, a, 1012, 1015);
  tracer.Add("late", 2, -1, 5000, 5010);
  auto stats = ReduceSpans({&tracer}, 0, 2000);
  Expect(stats["root"].self_ns == 60, "root self = 100 - union(A, B) = 60");
  Expect(stats["a"].self_ns == 17, "a self = 20 - 3 = 17");
  Expect(stats["b"].self_ns == 30, "b self = its whole duration");
  Expect(stats["g"].total_ns == 3, "grandchild duration");
  Expect(stats.count("late") == 0, "spans outside the window are not reduced");
  Expect(Near(stats["root"].MeanUs(), 0.1), "mean in microseconds");

  // Tracer window and cap; disabled tracers keep nothing.
  Tracer windowed(true, 1, 100, 2);
  Expect(windowed.Add("early", 0, -1, 50, 60) == -1, "spans before the window are dropped");
  Expect(windowed.Add("x", 0, -1, 100, 110) == 0, "first kept span");
  Expect(windowed.Add("y", 0, -1, 120, 130) == 1, "second kept span");
  Expect(windowed.Add("z", 0, -1, 140, 150) == -1, "spans past the cap are dropped");
  Tracer off(false, 1);
  Expect(off.Begin("x", 0, -1) == -1 && off.spans().empty(), "a disabled tracer keeps nothing");

  if (g_selftest_failures != 0) {
    return 1;
  }
  std::fprintf(stderr, "selftest ok\n");
  return 0;
}

// --- run -----------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: lwbench selftest\n"
               "       lwbench run --workload W [--seed N] [--seconds S] [--trace 0|1]\n"
               "                   [--tmpdir DIR] [--trace-out PREFIX]\n");
  return 2;
}

int Run(int argc, char** argv) {
  RunConfig config;
  config.tmp_base = ".";
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--tmpdir") {
      config.tmp_base = value;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (config.seconds <= 0) {
    return Usage();
  }
  Report report;
  Values values;
  if (IsFabricWorkload(config.workload)) {
    RunFabric(config, &report, &values);
  } else if (IsSearchWorkload(config.workload)) {
    RunSearch(config, &report, &values);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  const std::vector<MetricSpec> table =
      config.trace ? std::vector<MetricSpec>(std::begin(kPerLayer), std::end(kPerLayer))
                   : std::vector<MetricSpec>(std::begin(kEndToEnd), std::end(kEndToEnd));
  for (const auto& [name, value] : values) {
    if (std::none_of(table.begin(), table.end(),
                     [&name](const MetricSpec& spec) { return name == spec.name; })) {
      report.Fail("metric " + name + " is missing from the metric table");
    }
  }
  if (report.failure.empty()) {
    for (const MetricSpec& spec : table) {
      auto it = values.find(spec.name);
      report.Add(spec.name, it != values.end() ? it->second : 0.0, spec.unit);
    }
  } else {
    std::fprintf(stderr, "lwbench: %s: check failed: %s\n", config.workload.c_str(),
                 report.failure.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace lwbench

int main(int argc, char** argv) {
  // Address-space randomization moves the arenas from run to run, and with
  // them the page-table work of every set-up: it made setup_s bimodal across
  // processes. Re-execute once with a fixed layout; if that is refused, run
  // with whatever layout we have.
  int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) != -1) {
    execv("/proc/self/exe", argv);
  }
  // A daemon child that dies must surface as a failed check, not SIGPIPE.
  signal(SIGPIPE, SIG_IGN);
  if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0) {
    return lwbench::SelfTest();
  }
  if (argc >= 2 && std::strcmp(argv[1], "run") == 0) {
    return lwbench::Run(argc, argv);
  }
  return lwbench::Usage();
}
