// search_queens / search_spill: the paper's fine-grained guess/fail
// workload, in process and single-threaded. One op constructs a session over
// a private store, runs the 8-queens page-trail guest to exhaustion (every
// solution parks via sys_yield), reads all 92 parked mailboxes back, and
// destroys the session. search_queens runs it with the default engine and no
// budget; search_spill runs the same op under a 128 KiB snapshot budget with
// the spill tier on, so the ladder compresses and spills after guesses and
// the read-back and restores fault pages back in.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench/lwbench/lwbench.h"
#include "src/core/backtrack.h"

namespace lwbench {
namespace {

constexpr int kQueensN = 8;
constexpr size_t kQueensSolutions = 92;
constexpr uint64_t kSpillBudgetBytes = 128 * 1024;

using Board = std::array<uint8_t, kQueensN>;

// The page-trail queens guest of bench/bench_shared_store.cc: each placement
// also fills one page of a page-aligned trail, so every guess dirties whole
// pages, and each solution parks its board in a 16-byte mailbox.
void QueensGuest(void* arg) {
  int n = *static_cast<int*>(arg);
  auto* session = static_cast<lw::BacktrackSession*>(lw::CurrentExecutor());
  struct Placement {
    int row[16];
    int ld[32];
    int rd[32];
  };
  auto* b = lw::GuestNew<Placement>(session->heap());
  std::memset(b, 0, sizeof(Placement));
  auto* raw = static_cast<uint8_t*>(session->heap()->Alloc((16 + 1) * lw::kPageSize));
  auto* trail = reinterpret_cast<uint8_t*>(
      (reinterpret_cast<uintptr_t>(raw) + lw::kPageSize - 1) & ~(lw::kPageSize - 1));
  auto* mailbox = static_cast<uint8_t*>(session->heap()->Alloc(16));
  if (lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    for (int c = 0; c < n; ++c) {
      int r = lw::sys_guess(n);
      if (b->row[r] || b->ld[r + c] || b->rd[n + r - c]) {
        lw::sys_guess_fail();
      }
      b->row[r] = 1;
      b->ld[r + c] = 1;
      b->rd[n + r - c] = 1;
      std::memset(trail + static_cast<size_t>(c) * lw::kPageSize, r + 1, lw::kPageSize);
      mailbox[c] = static_cast<uint8_t>(r);
    }
    lw::sys_note_solution();
    lw::sys_yield(mailbox, 16);
    lw::sys_guess_fail();
  }
}

bool ValidBoard(const Board& board) {
  bool row[kQueensN] = {};
  bool ld[2 * kQueensN] = {};
  bool rd[2 * kQueensN] = {};
  for (int c = 0; c < kQueensN; ++c) {
    int r = board[static_cast<size_t>(c)];
    if (r >= kQueensN || row[r] || ld[r + c] || rd[kQueensN + r - c]) {
      return false;
    }
    row[r] = ld[r + c] = rd[kQueensN + r - c] = true;
  }
  return true;
}

lw::PageStoreOptions StoreOptions(const std::string& spill_dir) {
  lw::PageStoreOptions options;
  options.spill_dir = spill_dir;
  return options;
}

lw::SessionOptions SearchOptions(std::shared_ptr<lw::PageStore> store, bool spill) {
  lw::SessionOptions options;
  options.arena_bytes = 2ull << 20;
  options.output = [](std::string_view) {};
  options.store = std::move(store);
  options.snapshot_byte_budget = spill ? kSpillBudgetBytes : 0;
  return options;
}

// One op's phase boundaries and the counters it moved.
struct OpRecord {
  uint64_t t[5] = {};  // construct | run | readback | destroy
  uint64_t cpu_before = 0;  // this process's CPU when the op started
  lw::SessionStats session;
  uint64_t cow_faults = 0;
  lw::PageStore::Stats after_run;  // store right after Run
  lw::PageStore::Stats final;      // store after the session is gone
  std::vector<Board> boards;
  std::string error;

  uint64_t latency() const { return t[4] - t[0]; }
};

bool RunOp(bool spill, const std::string& spill_dir, OpRecord* op) {
  op->t[0] = NowNs();
  auto store = std::make_shared<lw::PageStore>(StoreOptions(spill ? spill_dir : ""));
  if (spill && !store->spill_enabled()) {
    op->error = "spill tier did not open: " + store->spill_status().ToString();
    return false;
  }
  auto session = std::make_unique<lw::BacktrackSession>(SearchOptions(store, spill));
  op->t[1] = NowNs();
  int n = kQueensN;
  lw::Status status = session->Run(&QueensGuest, &n);
  op->t[2] = NowNs();
  if (!status.ok()) {
    op->error = "search failed: " + status.ToString();
    return false;
  }
  op->session = session->stats();
  op->cow_faults = session->arena().cow_faults();
  op->after_run = store->stats();
  std::vector<lw::Checkpoint> parked = session->TakeNewCheckpoints();
  op->boards.assign(parked.size(), Board{});
  for (size_t i = 0; i < parked.size(); ++i) {
    status = session->ReadCheckpointMailbox(parked[i], op->boards[i].data(), kQueensN);
    if (!status.ok()) {
      op->error = "mailbox read-back failed: " + status.ToString();
      return false;
    }
  }
  op->t[3] = NowNs();
  parked.clear();
  session.reset();
  op->final = store->stats();
  store.reset();
  op->t[4] = NowNs();
  return true;
}

// Outside every timed span: exactly 92 distinct valid boards.
bool CheckBoards(const OpRecord& op, std::string* why) {
  if (op.boards.size() != kQueensSolutions) {
    *why = "search read back " + std::to_string(op.boards.size()) + " boards, expected 92";
    return false;
  }
  std::set<Board> distinct;
  for (const Board& board : op.boards) {
    if (!ValidBoard(board)) {
      *why = "search read back an invalid board";
      return false;
    }
    distinct.insert(board);
  }
  if (distinct.size() != kQueensSolutions) {
    *why = "search read back duplicate boards";
    return false;
  }
  return true;
}

uint64_t ProcessCpuSelfNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

// A warm-up followed by a measured window of whole ops. The window opens
// when the warm-up ends and closes after the last op started before
// `seconds` elapsed.
struct Phase {
  std::vector<OpRecord> ops;  // window ops
  uint64_t from_ns = 0;
  uint64_t to_ns = 0;
  uint64_t cpu_end = 0;
  std::unique_ptr<Tracer> tracer;

  // Ops per second and CPU per op, each the median over kSlices groups of
  // consecutive ops (a group runs from its first op's start to the next
  // group's, so the output checks between ops are inside it).
  void Rates(double* ops_per_s, double* cpu_ms_per_op) const {
    const size_t n = ops.size();
    const size_t groups = std::min<size_t>(kSlices, n);
    std::vector<double> rates;
    std::vector<double> cpu;
    for (size_t g = 0; g < groups; ++g) {
      size_t first = g * n / groups;
      size_t next = (g + 1) * n / groups;
      uint64_t start = g == 0 ? from_ns : ops[first].t[0];
      uint64_t end = next < n ? ops[next].t[0] : to_ns;
      uint64_t cpu_end_g = next < n ? ops[next].cpu_before : cpu_end;
      rates.push_back((next - first) / ((end - start) / 1e9));
      cpu.push_back((cpu_end_g - ops[first].cpu_before) / 1e6 / static_cast<double>(next - first));
    }
    *ops_per_s = Median(rates);
    *cpu_ms_per_op = Median(cpu);
  }
};

void RunPhase(const RunConfig& config, bool spill, const std::string& spill_dir, bool traced,
              Report* report, Phase* phase) {
  auto run_checked = [&](OpRecord* op) {
    ++report->attempted;
    std::string why;
    if (!RunOp(spill, spill_dir, op)) {
      ++report->failed;
      report->Fail(op->error);
      return false;
    }
    if (!CheckBoards(*op, &why)) {
      report->Fail(why);
      return false;
    }
    return true;
  };
  const uint64_t warm_until = NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  while (NowNs() < warm_until) {
    OpRecord op;
    if (!run_checked(&op)) {
      return;
    }
  }
  phase->from_ns = NowNs();
  phase->tracer = std::make_unique<Tracer>(traced, 1, phase->from_ns);
  const uint64_t until = phase->from_ns + static_cast<uint64_t>(config.seconds * 1e9);
  uint64_t request = 0;
  while (NowNs() < until) {
    OpRecord op;
    op.cpu_before = ProcessCpuSelfNs();
    if (!run_checked(&op)) {
      return;
    }
    Tracer& tracer = *phase->tracer;
    int32_t span = tracer.Add("search.op", request, -1, op.t[0], op.t[4]);
    tracer.Add("search.construct", request, span, op.t[0], op.t[1]);
    tracer.Add("search.run", request, span, op.t[1], op.t[2]);
    tracer.Add("search.readback", request, span, op.t[2], op.t[3]);
    tracer.Add("search.destroy", request, span, op.t[3], op.t[4]);
    ++request;
    op.boards.clear();
    phase->ops.push_back(std::move(op));
  }
  phase->to_ns = NowNs();
  phase->cpu_end = ProcessCpuSelfNs();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

bool IsSearchWorkload(const std::string& workload) {
  return workload == "search_queens" || workload == "search_spill";
}

void RunSearch(const RunConfig& config, Report* report, Values* values) {
  const bool spill = config.workload == "search_spill";
  Values& v = *values;

  ScopedTempDir spill_dir(config.tmp_base, "spill-");
  if (!spill_dir.ok()) {
    report->Fail("setup: mkdtemp failed under " + config.tmp_base);
    return;
  }
  Phase plain;
  RunPhase(config, spill, spill_dir.path(), false, report, &plain);
  if (!report->failure.empty()) {
    return;
  }
  if (plain.ops.empty()) {
    report->Fail("no search completed inside the window");
    return;
  }
  double plain_throughput = 0;
  double cpu_ms_per_op = 0;
  plain.Rates(&plain_throughput, &cpu_ms_per_op);
  if (!config.trace) {
    std::vector<uint64_t> latencies;
    std::vector<double> resident;
    std::vector<double> setups;  // every op sets up a store and a session
    for (const OpRecord& op : plain.ops) {
      latencies.push_back(op.latency());
      resident.push_back(op.after_run.bytes_resident() / 1048576.0);
      setups.push_back((op.t[1] - op.t[0]) / 1e9);
    }
    std::sort(latencies.begin(), latencies.end());
    v["throughput_ops_s"] = plain_throughput;
    v["lat_p50_ms"] = PercentileSorted(latencies, 50) / 1e6;
    v["lat_p99_ms"] = PercentileSorted(latencies, 99) / 1e6;
    v["cpu_ms_per_op"] = cpu_ms_per_op;
    v["peak_rss_mb"] = ProcessPeakRssBytes(getpid()) / 1048576.0;
    v["store_resident_mb"] = Median(resident);
    v["setup_s"] = Median(setups);
    return;
  }

  Phase traced;
  RunPhase(config, spill, spill_dir.path(), true, report, &traced);
  if (!report->failure.empty()) {
    return;
  }
  if (traced.ops.empty()) {
    report->Fail("no search completed inside the traced window");
    return;
  }
  auto spans = ReduceSpans({traced.tracer.get()}, traced.from_ns, traced.to_ns);
  const double ops = static_cast<double>(traced.ops.size());
  double traced_throughput = 0;
  double traced_cpu = 0;
  traced.Rates(&traced_throughput, &traced_cpu);
  v["trace.overhead_frac"] = 1 - traced_throughput / plain_throughput;

  const double construct_ms = spans["search.construct"].MeanUs() / 1e3;
  const double run_ms = spans["search.run"].MeanUs() / 1e3;
  const double readback_ms = spans["search.readback"].MeanUs() / 1e3;
  const double destroy_ms = spans["search.destroy"].MeanUs() / 1e3;
  const double op_ms = spans["search.op"].MeanUs() / 1e3;
  v["search.construct_ms"] = construct_ms;
  v["search.run_ms"] = run_ms;
  v["search.readback_ms"] = readback_ms;
  v["search.destroy_ms"] = destroy_ms;
  const double parts_ms = construct_ms + run_ms + readback_ms + destroy_ms;
  if (parts_ms < 0.95 * op_ms || parts_ms > 1.05 * op_ms) {
    report->Fail("trace: search phases do not add up to the op latency");
  }

  // Counters per op. Session counters and the spill/ladder state are read
  // right after Run; store lifetime counters after the session is gone, so
  // they include its teardown releases.
  double snapshot_ns = 0;
  double restore_ns = 0;
  double guesses = 0;
  double pages_materialized = 0;
  double pages_restored = 0;
  double cow_faults = 0;
  double hot_promotions = 0;
  double mprotect_calls = 0;
  double restore_runs = 0;
  double restore_skipped = 0;
  double evictions = 0;
  double published = 0;
  double dedup_hits = 0;
  double cross = 0;
  double release_locks = 0;
  double recycled = 0;
  double compressions = 0;
  double attempts = 0;
  double decompressions = 0;
  double spills = 0;
  double faultbacks = 0;
  std::vector<double> ram_over_logical;
  for (const OpRecord& op : traced.ops) {
    const lw::SessionStats& s = op.session;
    const lw::PageStore::Stats& f = op.final;
    snapshot_ns += s.snapshot_ns;
    restore_ns += s.restore_ns;
    guesses += s.guesses;
    pages_materialized += s.pages_materialized;
    pages_restored += s.pages_restored;
    cow_faults += op.cow_faults;
    hot_promotions += s.hot_promotions;
    mprotect_calls += s.restore_mprotect_calls;
    restore_runs += s.restore_runs_coalesced;
    restore_skipped += s.pages_restore_skipped;
    evictions += s.evictions;
    published += f.total_published;
    dedup_hits += f.zero_dedup_hits + f.content_dedup_hits;
    cross += f.cross_session_dedup_hits;
    release_locks += f.release_shard_locks;
    recycled += f.blobs_recycled_batched;
    compressions += f.compressions;
    attempts += f.compression_attempts;
    decompressions += f.decompressions;
    spills += f.spills;
    faultbacks += f.faultbacks;
    ram_over_logical.push_back(Ratio(static_cast<double>(op.after_run.bytes_live()),
                                     static_cast<double>(op.after_run.bytes_logical())));
  }
  const double materialize_us = snapshot_ns / 1e3 / ops;
  const double restore_us = restore_ns / 1e3 / ops;
  v["session.materialize_us"] = materialize_us;
  v["session.restore_us"] = restore_us;
  v["session.unaccounted_ms"] = run_ms - (materialize_us + restore_us) / 1e3;
  v["session.guesses"] = guesses / ops;
  v["engine.pages_materialized"] = pages_materialized / ops;
  v["engine.pages_restored"] = pages_restored / ops;
  v["engine.cow_faults"] = cow_faults / ops;
  v["engine.hot_promotions"] = hot_promotions / ops;
  v["engine.restore_mprotect_calls"] = mprotect_calls / ops;
  v["engine.restore_runs"] = restore_runs / ops;
  v["engine.restore_skip_ratio"] = Ratio(restore_skipped, restore_skipped + pages_restored);
  v["store.publishes"] = published / ops;
  v["store.dedup_hit_ratio"] = Ratio(dedup_hits, dedup_hits + published);
  v["store.cross_session_dedup"] = cross / ops;
  v["store.release_shard_locks"] = release_locks / ops;
  v["store.blobs_recycled"] = recycled / ops;
  v["ladder.compressions"] = compressions / ops;
  v["ladder.compress_success_ratio"] = Ratio(compressions, attempts);
  v["ladder.decompressions"] = decompressions / ops;
  v["ladder.spills"] = spills / ops;
  v["ladder.faultbacks"] = faultbacks / ops;
  v["ladder.evictions"] = evictions / ops;
  v["ladder.ram_over_logical"] = Median(ram_over_logical);

  if (!config.trace_path.empty() &&
      !WriteChromeTrace(config.trace_path + ".search.json", "search ops", {traced.tracer.get()},
                        SIZE_MAX)) {
    report->Fail("trace: could not write " + config.trace_path);
  }
}

}  // namespace lwbench
