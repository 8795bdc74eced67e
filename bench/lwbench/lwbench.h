// lwbench workloads. Each entry point runs one workload in this process for
// the configured warm-up and window, checks the library's outputs, and
// returns its metrics by name (main.cc orders them and fills the fixed
// metric tables).
//
//   fabric_small, fabric_large — remote checkpoint daemon in a forked child,
//       four closed-loop DFS tenants over loopback (fabric.cc).
//   search_queens, search_spill — one in-process 8-queens search per op,
//       unbudgeted vs spilling under a 128 KiB budget (search.cc).

#ifndef LWSNAP_BENCH_LWBENCH_LWBENCH_H_
#define LWSNAP_BENCH_LWBENCH_LWBENCH_H_

#include <map>
#include <string>

#include "bench/lwbench/measure.h"

namespace lwbench {

// Metric values by name; units come from main.cc's tables.
using Values = std::map<std::string, double>;

bool IsFabricWorkload(const std::string& workload);
bool IsSearchWorkload(const std::string& workload);

// Untraced runs fill the end-to-end values; traced runs fill the per-layer
// values (tracing overhead included). Failures land in report->failure.
void RunFabric(const RunConfig& config, Report* report, Values* values);
void RunSearch(const RunConfig& config, Report* report, Values* values);

}  // namespace lwbench

#endif  // LWSNAP_BENCH_LWBENCH_LWBENCH_H_
