// Measurement primitives for lwbench: exact percentiles over raw samples,
// in-memory spans reduced to per-name means and self times, Chrome trace-event
// output, /proc readers for the serving process, a scoped temporary
// directory, and the result record every workload fills in.
//
// Everything here measures the library from outside: spans are stamped by
// the benchmark around calls into public functions, never inside src/.

#ifndef LWSNAP_BENCH_LWBENCH_MEASURE_H_
#define LWSNAP_BENCH_LWBENCH_MEASURE_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lwbench {

// The measured window is cut into kSlices equal parts, and rates (throughput,
// CPU per op) are medians over the parts: a burst of outside load that slows
// one part moves the result less than it moves a whole-window mean.
constexpr int kSlices = 10;

// Every run warms up this long before its window opens; the warm-up's ops
// are checked but not measured.
constexpr double kWarmupSeconds = 3;

// Steady-clock nanoseconds.
uint64_t NowNs();

// Exact nearest-rank percentile of ascending `sorted` samples: the smallest
// sample with at least p% of the samples at or below it. p in (0, 100];
// returns 0 for an empty set. Never a histogram bucket edge.
uint64_t PercentileSorted(const std::vector<uint64_t>& sorted, double p);

// Median of `values` (mean of the two middle values for an even count).
double Median(std::vector<double> values);

// One timed interval. `parent` indexes the span that caused this one in the
// same buffer (-1 = a root); spans of one request share `request`.
struct Span {
  const char* name = nullptr;  // static string
  int32_t parent = -1;
  uint32_t thread = 0;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Per-thread span buffer. It keeps spans that start at or after `from_ns`,
// at most `cap` of them, so warm-up traffic and very fast workloads cannot
// grow it without bound. A span it does not keep gets index -1, and every
// call taking -1 is a no-op: untraced runs pay one branch per would-be span.
class Tracer {
 public:
  Tracer(bool enabled, uint32_t thread, uint64_t from_ns = 0, size_t cap = SIZE_MAX)
      : enabled_(enabled), thread_(thread), from_ns_(from_ns), cap_(cap) {}

  int32_t Open(const char* name, uint64_t request, int32_t parent, uint64_t start_ns);
  void Close(int32_t span, uint64_t end_ns);
  // Records an interval measured elsewhere (a pool job's start/end, stamped
  // on the worker and handed back through its result).
  int32_t Add(const char* name, uint64_t request, int32_t parent, uint64_t start_ns,
              uint64_t end_ns);
  int32_t Begin(const char* name, uint64_t request, int32_t parent) {
    return enabled_ ? Open(name, request, parent, NowNs()) : -1;
  }
  void End(int32_t span) {
    if (span >= 0) {
      Close(span, NowNs());
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint32_t thread_;
  uint64_t from_ns_;
  size_t cap_;
  std::vector<Span> spans_;
};

// Per-name reduction of a span buffer.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;              // total minus the union of child intervals
  std::vector<uint64_t> durations;  // sorted, for exact percentiles
  double MeanUs() const { return count == 0 ? 0.0 : total_ns / 1e3 / count; }
  double SelfMeanUs() const { return count == 0 ? 0.0 : self_ns / 1e3 / count; }
  double PercentileUs(double p) const { return PercentileSorted(durations, p) / 1e3; }
};

// Reduces every span lying wholly inside [from_ns, to_ns]. A span's self time
// is its duration minus the part of it that its children cover (overlapping
// children, as with pipelined requests, are merged before subtracting).
std::map<std::string, SpanStats> ReduceSpans(const std::vector<const Tracer*>& tracers,
                                             uint64_t from_ns, uint64_t to_ns);

// Writes the first `limit` spans of each tracer as Chrome trace-event JSON
// (load in chrome://tracing or Perfetto). Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path, const std::string& section,
                      const std::vector<const Tracer*>& tracers, size_t limit);

// User+system CPU of process `pid` in nanoseconds (all its threads), from
// /proc/<pid>/stat. Returns false when the process is gone.
bool ProcessCpuNs(pid_t pid, uint64_t* ns);
// Peak resident set (VmHWM) of `pid` in bytes; 0 when unreadable.
uint64_t ProcessPeakRssBytes(pid_t pid);

// mkdtemp under `base` (created if missing); the whole tree is removed on
// destruction, on every exit path that unwinds.
class ScopedTempDir {
 public:
  ScopedTempDir(const std::string& base, const char* prefix);
  ~ScopedTempDir();
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// What one workload run reports. `failure` names the first check that
// failed; a non-empty failure makes the run exit nonzero.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string failure;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    if (failure.empty()) {
      failure = why;
    }
  }
  // The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson() const;
};

// Settings shared by every workload run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 11;
  double seconds = 10;
  bool trace = false;
  std::string tmp_base;    // scratch root (sockets, spill segments)
  std::string trace_path;  // Chrome trace output (trace runs only)
};

}  // namespace lwbench

#endif  // LWSNAP_BENCH_LWBENCH_MEASURE_H_
