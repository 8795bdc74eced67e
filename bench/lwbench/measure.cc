#include "bench/lwbench/measure.h"

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

namespace lwbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t PercentileSorted(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  // p * n is exact for the sample counts in use; dividing last keeps a whole
  // rank whole (p / 100 * n can land a hair above it and round up).
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size()) / 100.0));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

int32_t Tracer::Open(const char* name, uint64_t request, int32_t parent, uint64_t start_ns) {
  if (!enabled_ || start_ns < from_ns_ || spans_.size() >= cap_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.thread = thread_;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::Close(int32_t span, uint64_t end_ns) {
  if (span >= 0) {
    spans_[static_cast<size_t>(span)].end_ns = end_ns;
  }
}

int32_t Tracer::Add(const char* name, uint64_t request, int32_t parent, uint64_t start_ns,
                    uint64_t end_ns) {
  int32_t span = Open(name, request, parent, start_ns);
  Close(span, end_ns);
  return span;
}

std::map<std::string, SpanStats> ReduceSpans(const std::vector<const Tracer*>& tracers,
                                             uint64_t from_ns, uint64_t to_ns) {
  std::map<std::string, SpanStats> out;
  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<std::vector<int32_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        children[static_cast<size_t>(spans[i].parent)].push_back(static_cast<int32_t>(i));
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.start_ns < from_ns || span.end_ns > to_ns) {
        continue;
      }
      covered.clear();
      for (int32_t c : children[i]) {
        const Span& child = spans[static_cast<size_t>(c)];
        uint64_t lo = std::max(child.start_ns, span.start_ns);
        uint64_t hi = std::min(child.end_ns, span.end_ns);
        if (lo < hi) {
          covered.emplace_back(lo, hi);
        }
      }
      std::sort(covered.begin(), covered.end());
      uint64_t child_ns = 0;
      uint64_t run_lo = 0;
      uint64_t run_hi = 0;
      bool open = false;
      for (const auto& [lo, hi] : covered) {
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) {
          child_ns += run_hi - run_lo;
        }
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) {
        child_ns += run_hi - run_lo;
      }
      uint64_t dur = span.end_ns - span.start_ns;
      SpanStats& stats = out[span.name];
      ++stats.count;
      stats.total_ns += dur;
      stats.self_ns += dur - child_ns;
      stats.durations.push_back(dur);
    }
  }
  for (auto& [name, stats] : out) {
    std::sort(stats.durations.begin(), stats.durations.end());
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::string& section,
                      const std::vector<const Tracer*>& tracers, size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  uint64_t origin = UINT64_MAX;
  size_t unwritten = 0;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      origin = std::min(origin, span.start_ns);
    }
    if (tracer->spans().size() > limit) {
      unwritten += tracer->spans().size() - limit;
    }
  }
  std::fprintf(f, "{\"otherData\":{\"section\":\"%s\",\"spans_not_written\":%zu},"
               "\"traceEvents\":[",
               section.c_str(), unwritten);
  bool first = true;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    size_t n = std::min(limit, spans.size());
    for (size_t i = 0; i < n; ++i) {
      const Span& span = spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"request\":%llu,\"parent\":%d}}",
                   first ? "" : ",", span.name, span.thread, (span.start_ns - origin) / 1e3,
                   (span.end_ns - span.start_ns) / 1e3,
                   static_cast<unsigned long long>(span.request), span.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

bool ProcessCpuNs(pid_t pid, uint64_t* ns) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) {
    return false;
  }
  // The command name may contain spaces; fields resume after its ')'.
  size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return false;
  }
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // After ')': state(3) ... utime is field 14, stime field 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) {
      utime = std::strtoull(field.c_str(), nullptr, 10);
    } else if (index == 15) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
    }
  }
  long ticks = sysconf(_SC_CLK_TCK);
  if (ticks <= 0) {
    return false;
  }
  *ns = (utime + stime) * (1000000000ull / static_cast<unsigned long long>(ticks));
  return true;
}

uint64_t ProcessPeakRssBytes(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

ScopedTempDir::ScopedTempDir(const std::string& base, const char* prefix) {
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  std::string tmpl = base + "/" + prefix + "XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) != nullptr) {
    path_ = buf.data();
  }
}

ScopedTempDir::~ScopedTempDir() {
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failure.empty() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed;
  if (!failure.empty()) {
    out << ", \"failure\": \"";
    for (char c : failure) {
      out << (c == '"' || c == '\\' ? '\'' : c);
    }
    out << "\"";
  }
  out << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << JsonNumber(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace lwbench
