// fabric_small / fabric_large: the remote checkpoint fabric under bisection-
// style traffic. Four tenants each run a closed-loop DFS driver: solve a
// graph-colouring base, probe a (node, colour) literal by sending the sibling
// Extends x and ¬x pipelined, descend into a SAT child and release the
// other, release and backtrack on a double UNSAT, and start over with a new
// base at depth 8. The loop is closed because the daemon's real callers are
// search drivers that wait for each outcome before choosing the next branch.
//
// The untraced run measures what a tenant sees. The traced run adds three
// parts so the request path can be split by layer:
//   (A) the same remote run with client spans (encode/send/wait/release);
//   (B) an in-process replay of the same tenant scripts through
//       ServicePool<SolverService> with the daemon's options, timing the
//       pool queue and the service call and sampling session counters inside
//       each job exactly as the daemon samples pages_materialized;
//   (C) tenant 0's script alone on a one-service pool, the base of the
//       contention factor.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/lwbench/lwbench.h"
#include "src/net/client.h"
#include "src/service/daemon.h"
#include "src/service/pool.h"
#include "src/solver/cnf.h"
#include "src/solver/service.h"
#include "src/util/rng.h"

namespace lwbench {
namespace {

constexpr int kTenants = 4;  // sized for nproc = 4; fixed, not derived
constexpr int kColors = 3;
constexpr size_t kMaxDepth = 8;
constexpr size_t kParityRequests = 64;
constexpr int kSetupRepeats = 9;
constexpr size_t kSpanCap = 200000;       // per tenant thread
constexpr size_t kTraceFileSpans = 10000;  // per tenant thread, in the trace file
constexpr int kChildTimeoutMs = 60000;

struct Shape {
  int nodes = 0;
  int edges = 0;
};

Shape ShapeOf(const std::string& workload) {
  return workload == "fabric_large" ? Shape{1000, 2000} : Shape{40, 90};
}

lw::SolverServiceOptions ServiceOptions() {
  lw::SolverServiceOptions options;
  options.tuning.mailbox_bytes = 1ull << 20;  // a 1000-node base encodes to ~140 KiB
  return options;
}

lw::CheckpointDaemonOptions DaemonOptions() {
  lw::CheckpointDaemonOptions options;
  options.num_services = kTenants;
  options.service = ServiceOptions();
  return options;
}

struct Window {
  uint64_t from_ns = 0;
  uint64_t to_ns = 0;
  bool Contains(uint64_t start, uint64_t end) const { return start >= from_ns && end <= to_ns; }
  double seconds() const { return (to_ns - from_ns) / 1e9; }
};

uint64_t TenantSeed(uint64_t seed, int tenant) {
  return seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(tenant + 1) * 0xbf58476d1ce4e5b9ull;
}

// ---------------------------------------------------------------------------
// Transports: the driver speaks one vocabulary to the daemon and to a pool.
// ---------------------------------------------------------------------------

// The op span a transport hangs its own spans under.
struct OpTag {
  int32_t span = -1;
  uint64_t request = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual const char* op_name() const = 0;
  // Sends one solve without waiting (parent 0 = the session's pristine empty
  // root, i.e. SolveRoot); returns the ticket to Wait on with the same tag.
  virtual lw::Result<uint64_t> Send(uint64_t parent, const std::vector<uint8_t>& request,
                                    OpTag tag) = 0;
  virtual lw::Result<lw::RemoteOutcome> Wait(uint64_t ticket, OpTag tag) = 0;
  virtual lw::Status Release(uint64_t token, uint64_t request) = 0;

  // The driver thread's span buffer; bound before the driver starts.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 protected:
  Tracer* tracer_ = nullptr;
};

class RemoteTransport final : public Transport {
 public:
  RemoteTransport(std::unique_ptr<lw::RemoteCheckpointClient> client, uint32_t session)
      : client_(std::move(client)), session_(session) {}

  const char* op_name() const override { return "client.solve"; }

  lw::Result<uint64_t> Send(uint64_t parent, const std::vector<uint8_t>& request,
                            OpTag tag) override {
    int32_t span = tracer_->Begin("client.send", tag.request, tag.span);
    lw::Result<uint64_t> ticket =
        parent == 0
            ? client_->SendSolveRootEncoded(session_, request.data(), request.size())
            : client_->SendExtendEncoded(session_, parent, request.data(), request.size());
    tracer_->End(span);
    return ticket;
  }

  lw::Result<lw::RemoteOutcome> Wait(uint64_t ticket, OpTag tag) override {
    int32_t span = tracer_->Begin("client.wait", tag.request, tag.span);
    lw::Result<lw::RemoteOutcome> outcome = client_->WaitOutcome(ticket);
    tracer_->End(span);
    return outcome;
  }

  lw::Status Release(uint64_t token, uint64_t request) override {
    int32_t span = tracer_->Begin("client.release", request, -1);
    lw::Status status = client_->Release(session_, token);
    tracer_->End(span);
    return status;
  }

 private:
  std::unique_ptr<lw::RemoteCheckpointClient> client_;
  uint32_t session_;
};

// Session/engine counters one pool job moved, sampled on the worker around
// the service call, plus the call's own duration.
struct JobCounters {
  uint64_t extend_ns = 0;
  uint64_t restore_ns = 0;
  uint64_t snapshot_ns = 0;
  uint64_t pages_materialized = 0;
  uint64_t pages_restored = 0;
  uint64_t cow_faults = 0;
  uint64_t hot_promotions = 0;
  uint64_t restore_mprotect_calls = 0;
  uint64_t restore_runs = 0;
  uint64_t restore_skipped = 0;
  uint64_t guesses = 0;
  uint64_t evictions = 0;

  static JobCounters Of(lw::SolverService& service) {
    const lw::SessionStats& s = service.session_stats();
    JobCounters c;
    c.restore_ns = s.restore_ns;
    c.snapshot_ns = s.snapshot_ns;
    c.pages_materialized = s.pages_materialized;
    c.pages_restored = s.pages_restored;
    c.cow_faults = service.host().session().arena().cow_faults();
    c.hot_promotions = s.hot_promotions;
    c.restore_mprotect_calls = s.restore_mprotect_calls;
    c.restore_runs = s.restore_runs_coalesced;
    c.restore_skipped = s.pages_restore_skipped;
    c.guesses = s.guesses;
    c.evictions = s.evictions;
    return c;
  }

  void AddDelta(const JobCounters& after, const JobCounters& before) {
    extend_ns += after.extend_ns - before.extend_ns;
    restore_ns += after.restore_ns - before.restore_ns;
    snapshot_ns += after.snapshot_ns - before.snapshot_ns;
    pages_materialized += after.pages_materialized - before.pages_materialized;
    pages_restored += after.pages_restored - before.pages_restored;
    cow_faults += after.cow_faults - before.cow_faults;
    hot_promotions += after.hot_promotions - before.hot_promotions;
    restore_mprotect_calls += after.restore_mprotect_calls - before.restore_mprotect_calls;
    restore_runs += after.restore_runs - before.restore_runs;
    restore_skipped += after.restore_skipped - before.restore_skipped;
    guesses += after.guesses - before.guesses;
    evictions += after.evictions - before.evictions;
  }

  void Add(const JobCounters& other) {
    JobCounters zero;
    AddDelta(other, zero);
  }
};

struct SolveJob {
  lw::Result<lw::SolverService::Outcome> outcome = lw::Internal("job did not run");
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  JobCounters delta;
};

struct ReleaseJob {
  lw::Status status;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// One tenant's view of a ServicePool service: tokens map to Checkpoint
// handles held here, as the daemon holds them for a remote tenant.
class PoolTransport final : public Transport {
 public:
  PoolTransport(lw::ServicePool<lw::SolverService>& pool, int service, lw::Checkpoint root)
      : pool_(pool), service_(service), root_(std::move(root)) {}

  const char* op_name() const override { return "pool.solve"; }
  // Summed counters of the traced solve jobs, and how many there were.
  const JobCounters& totals() const { return totals_; }
  uint64_t traced_jobs() const { return traced_jobs_; }

  lw::Result<uint64_t> Send(uint64_t parent, const std::vector<uint8_t>& request,
                            OpTag /*tag*/) override {
    const lw::Checkpoint* parent_handle = &root_;
    if (parent != 0) {
      auto it = tokens_.find(parent);
      if (it == tokens_.end()) {
        return lw::NotFound("unknown parent token");
      }
      parent_handle = &it->second;
    }
    auto job_parent = std::make_shared<lw::Checkpoint>(parent_handle->Clone());
    auto job_request = std::make_shared<std::vector<uint8_t>>(request);
    Pending pending;
    pending.submit_ns = NowNs();
    pending.future = pool_.Submit(service_, [job_parent, job_request](lw::SolverService& s) {
      SolveJob job;
      JobCounters before = JobCounters::Of(s);
      job.start_ns = NowNs();
      job.outcome = s.ExtendEncoded(*job_parent, job_request->data(), job_request->size());
      job.end_ns = NowNs();
      job.delta.AddDelta(JobCounters::Of(s), before);
      job.delta.extend_ns = job.end_ns - job.start_ns;
      return job;
    });
    uint64_t ticket = next_ticket_++;
    pending_.emplace(ticket, std::move(pending));
    return ticket;
  }

  lw::Result<lw::RemoteOutcome> Wait(uint64_t ticket, OpTag tag) override {
    auto it = pending_.find(ticket);
    if (it == pending_.end()) {
      return lw::NotFound("unknown ticket");
    }
    Pending pending = std::move(it->second);
    pending_.erase(it);
    SolveJob job = pending.future.get();
    if (tag.span >= 0) {
      tracer_->Add("pool.queue_wait", tag.request, tag.span, pending.submit_ns, job.start_ns);
      tracer_->Add("service.extend", tag.request, tag.span, job.start_ns, job.end_ns);
      totals_.Add(job.delta);
      ++traced_jobs_;
    }
    if (!job.outcome.ok()) {
      return job.outcome.status();
    }
    lw::SolverService::Outcome& solved = *job.outcome;
    lw::RemoteOutcome outcome;
    outcome.result = solved.result;
    outcome.token = next_token_++;
    outcome.num_vars = solved.num_vars;
    outcome.conflicts = solved.conflicts;
    outcome.model_bits = std::move(solved.model_bits);
    tokens_.emplace(outcome.token, std::move(solved.token));
    return outcome;
  }

  lw::Status Release(uint64_t token, uint64_t request) override {
    auto it = tokens_.find(token);
    if (it == tokens_.end()) {
      return lw::NotFound("unknown token");
    }
    auto handle = std::make_shared<lw::Checkpoint>(std::move(it->second));
    tokens_.erase(it);
    uint64_t submit_ns = NowNs();
    int32_t span = tracer_->Open("pool.release", request, -1, submit_ns);
    ReleaseJob job = pool_
                         .Submit(service_,
                                 [handle](lw::SolverService& s) {
                                   ReleaseJob r;
                                   r.start_ns = NowNs();
                                   r.status = s.Release(*handle);
                                   r.end_ns = NowNs();
                                   return r;
                                 })
                         .get();
    tracer_->Close(span, NowNs());
    if (span >= 0) {
      tracer_->Add("service.release", request, span, job.start_ns, job.end_ns);
    }
    return job.status;
  }

 private:
  struct Pending {
    std::future<SolveJob> future;
    uint64_t submit_ns = 0;
  };

  lw::ServicePool<lw::SolverService>& pool_;
  int service_;
  lw::Checkpoint root_;
  std::unordered_map<uint64_t, lw::Checkpoint> tokens_;
  std::unordered_map<uint64_t, Pending> pending_;
  uint64_t next_token_ = 1;
  uint64_t next_ticket_ = 1;
  JobCounters totals_;
  uint64_t traced_jobs_ = 0;
};

// ---------------------------------------------------------------------------
// The tenant driver.
// ---------------------------------------------------------------------------

// One of the first kParityRequests requests a tenant sent, for the replay.
struct LoggedRequest {
  int parent = -1;  // index of the logged request that produced the parent; -1 = root
  std::vector<uint8_t> bytes;
  bool answered = false;
  lw::RemoteOutcome outcome;
};

struct TenantRun {
  std::vector<uint64_t> latencies;  // ns, solves inside the window
  std::vector<uint64_t> ends;       // their completion times
  uint64_t attempted = 0;           // solves + releases
  uint64_t failed = 0;
  uint64_t extends = 0;
  uint64_t unsat_extends = 0;
  std::string failure;
  std::vector<LoggedRequest> log;
};

class TenantDriver {
 public:
  TenantDriver(Transport& transport, Tracer& tracer, Shape shape, uint64_t seed, int tenant,
               Window window, std::atomic<bool>& stop, TenantRun* run)
      : transport_(transport),
        tracer_(tracer),
        shape_(shape),
        rng_(TenantSeed(seed, tenant)),
        next_request_((static_cast<uint64_t>(tenant) + 1) << 40),
        window_(window),
        stop_(stop),
        run_(*run) {}

  void Run() {
    while (!stop_.load(std::memory_order_relaxed)) {
      if (!Base()) {
        return;
      }
    }
  }

 private:
  struct Node {
    uint64_t token = 0;
    lw::Lit unit = lw::kUndefLit;  // the literal this node added (root: none)
  };

  // One base: root solve, then probes until depth 8, a dead root, or stop.
  bool Base() {
    lw::Cnf base = lw::GraphColoring(&rng_, shape_.nodes, shape_.edges, kColors);
    uint64_t id = next_request_++;
    std::vector<uint8_t> bytes;
    if (!Encode(base.clauses, id, &bytes)) {
      return false;
    }
    lw::RemoteOutcome root;
    std::vector<Node> chain;
    if (!SolveBatch(base, chain, 0, 1, &id, &bytes, nullptr, &root)) {
      return false;
    }
    chain.push_back({root.token, lw::kUndefLit});
    while (!stop_.load(std::memory_order_relaxed)) {
      if (chain.size() > kMaxDepth) {
        return ReleaseChain(&chain);
      }
      lw::Var var = static_cast<lw::Var>(rng_.Below(static_cast<uint64_t>(shape_.nodes)) *
                                             kColors +
                                         rng_.Below(kColors));
      lw::Lit probes[2] = {lw::MakeLit(var), ~lw::MakeLit(var)};
      uint64_t ids[2];
      std::vector<uint8_t> requests[2];
      for (int i = 0; i < 2; ++i) {
        ids[i] = next_request_++;
        if (!Encode({{probes[i]}}, ids[i], &requests[i])) {
          return false;
        }
      }
      lw::RemoteOutcome children[2];
      if (!SolveBatch(base, chain, chain.back().token, 2, ids, requests, probes, children)) {
        return false;
      }
      int keep = children[0].result == lw::kTrue ? 0 : children[1].result == lw::kTrue ? 1 : -1;
      for (int i = 0; i < 2; ++i) {
        if (i != keep && !Release(children[i].token)) {
          return false;
        }
      }
      if (keep >= 0) {
        chain.push_back({children[keep].token, probes[keep]});
        continue;
      }
      // Double UNSAT: the tip is dead; release it and backtrack.
      if (!Release(chain.back().token)) {
        return false;
      }
      chain.pop_back();
      if (chain.empty()) {
        return true;
      }
    }
    return true;
  }

  bool Encode(const std::vector<std::vector<lw::Lit>>& clauses, uint64_t request,
              std::vector<uint8_t>* out) {
    int32_t span = tracer_.Begin("client.encode", request, -1);
    lw::Status status = lw::EncodeSolverRequest(clauses, 0, out);
    tracer_.End(span);
    return status.ok() || Fail("encode failed: " + status.ToString());
  }

  // Sends `count` solves of one parent back to back (pipelined), then waits
  // for each. Latency is Send → WaitOutcome; the model check runs after the
  // latency span closes.
  bool SolveBatch(const lw::Cnf& base, const std::vector<Node>& chain, uint64_t parent, int count,
                  const uint64_t* ids, const std::vector<uint8_t>* requests,
                  const lw::Lit* probes, lw::RemoteOutcome* outcomes) {
    uint64_t start[2] = {0, 0};
    int32_t spans[2] = {-1, -1};
    uint64_t tickets[2] = {0, 0};
    int logged[2] = {-1, -1};
    for (int i = 0; i < count; ++i) {
      logged[i] = LogRequest(parent, requests[i]);
      start[i] = NowNs();
      spans[i] = tracer_.Open(transport_.op_name(), ids[i], -1, start[i]);
      ++run_.attempted;
      lw::Result<uint64_t> ticket = transport_.Send(parent, requests[i], {spans[i], ids[i]});
      if (!ticket.ok()) {
        ++run_.failed;
        return Fail("send failed: " + ticket.status().ToString());
      }
      tickets[i] = *ticket;
    }
    for (int i = 0; i < count; ++i) {
      lw::Result<lw::RemoteOutcome> outcome = transport_.Wait(tickets[i], {spans[i], ids[i]});
      uint64_t end = NowNs();
      tracer_.Close(spans[i], end);
      if (!outcome.ok()) {
        ++run_.failed;
        return Fail("solve failed: " + outcome.status().ToString());
      }
      outcomes[i] = *std::move(outcome);
      if (window_.Contains(start[i], end)) {
        run_.latencies.push_back(end - start[i]);
        run_.ends.push_back(end);
      }
    }
    for (int i = 0; i < count; ++i) {
      const lw::RemoteOutcome& outcome = outcomes[i];
      if (outcome.result != lw::kTrue && outcome.result != lw::kFalse) {
        return Fail("solve returned neither SAT nor UNSAT");
      }
      if (parent != 0) {
        ++run_.extends;
        run_.unsat_extends += outcome.result == lw::kFalse ? 1 : 0;
      }
      if (outcome.result == lw::kTrue &&
          !ModelSatisfies(outcome, base, chain, probes != nullptr ? probes[i] : lw::kUndefLit)) {
        return Fail("model check: a SAT model violates base and chain assumptions");
      }
      if (logged[i] >= 0) {
        LoggedRequest& entry = run_.log[static_cast<size_t>(logged[i])];
        entry.answered = true;
        entry.outcome = outcome;
        log_index_[outcome.token] = logged[i];
      }
    }
    return true;
  }

  static bool ModelSatisfies(const lw::RemoteOutcome& outcome, const lw::Cnf& base,
                             const std::vector<Node>& chain, lw::Lit probe) {
    std::vector<bool> assignment(outcome.num_vars);
    for (uint32_t v = 0; v < outcome.num_vars; ++v) {
      assignment[v] = lw::RemoteCheckpointClient::ModelBit(outcome, static_cast<lw::Var>(v));
    }
    lw::Cnf assumptions;
    for (const Node& node : chain) {
      if (node.unit != lw::kUndefLit) {
        assumptions.clauses.push_back({node.unit});
      }
    }
    if (probe != lw::kUndefLit) {
      assumptions.clauses.push_back({probe});
    }
    return base.IsSatisfiedBy(assignment) && assumptions.IsSatisfiedBy(assignment);
  }

  int LogRequest(uint64_t parent, const std::vector<uint8_t>& bytes) {
    if (run_.log.size() >= kParityRequests) {
      return -1;
    }
    LoggedRequest entry;
    if (parent != 0) {
      auto it = log_index_.find(parent);
      if (it == log_index_.end()) {
        return -1;  // unreachable: a logged request's parent was logged earlier
      }
      entry.parent = it->second;
    }
    entry.bytes = bytes;
    run_.log.push_back(std::move(entry));
    return static_cast<int>(run_.log.size() - 1);
  }

  bool Release(uint64_t token) {
    ++run_.attempted;
    lw::Status status = transport_.Release(token, next_request_++);
    if (!status.ok()) {
      ++run_.failed;
      return Fail("release failed: " + status.ToString());
    }
    return true;
  }

  bool ReleaseChain(std::vector<Node>* chain) {
    for (const Node& node : *chain) {
      if (!Release(node.token)) {
        return false;
      }
    }
    chain->clear();
    return true;
  }

  bool Fail(const std::string& why) {
    if (run_.failure.empty()) {
      run_.failure = why;
    }
    stop_.store(true);
    return false;
  }

  Transport& transport_;
  Tracer& tracer_;
  Shape shape_;
  lw::Rng rng_;
  uint64_t next_request_;
  Window window_;
  std::atomic<bool>& stop_;
  TenantRun& run_;
  std::unordered_map<uint64_t, int> log_index_;  // token → logged request
};

struct FleetRun {
  Window window;
  std::vector<TenantRun> tenants;
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::string failure;

  uint64_t WindowOps() const {
    uint64_t ops = 0;
    for (const TenantRun& t : tenants) {
      ops += t.latencies.size();
    }
    return ops;
  }
  // Solves completed in each of the window's kSlices slices.
  std::vector<uint64_t> SliceOps() const {
    std::vector<uint64_t> ops(kSlices, 0);
    const uint64_t span = window.to_ns - window.from_ns;
    for (const TenantRun& t : tenants) {
      for (uint64_t end : t.ends) {
        size_t k = static_cast<size_t>((end - window.from_ns) * kSlices / span);
        ++ops[std::min<size_t>(k, kSlices - 1)];
      }
    }
    return ops;
  }
  // Median over slices of completed solves per second.
  double Throughput() const {
    std::vector<double> rates;
    for (uint64_t ops : SliceOps()) {
      rates.push_back(ops / (window.seconds() / kSlices));
    }
    return Median(rates);
  }
  std::vector<const Tracer*> TracerViews() const {
    std::vector<const Tracer*> views;
    for (const auto& t : tracers) {
      views.push_back(t.get());
    }
    return views;
  }
};

// Runs one driver thread per transport for warm-up + window. `at_boundary(k)`
// runs on the calling thread at each slice boundary k = 0..kSlices of the
// window (k = kSlices is its end, before the drivers stop).
template <typename AtBoundary>
void DriveFleet(const RunConfig& config, Shape shape, const std::vector<Transport*>& transports,
                AtBoundary at_boundary, FleetRun* run) {
  const size_t n = transports.size();
  uint64_t begin = NowNs();
  run->window.from_ns = begin + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  run->window.to_ns = run->window.from_ns + static_cast<uint64_t>(config.seconds * 1e9);
  run->tenants.assign(n, TenantRun{});
  run->tracers.clear();
  for (size_t i = 0; i < n; ++i) {
    run->tracers.push_back(std::make_unique<Tracer>(config.trace, static_cast<uint32_t>(i + 1),
                                                    run->window.from_ns, kSpanCap));
  }
  for (size_t i = 0; i < n; ++i) {
    transports[i]->set_tracer(run->tracers[i].get());
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      TenantDriver driver(*transports[i], *run->tracers[i], shape, config.seed,
                          static_cast<int>(i), run->window, stop, &run->tenants[i]);
      driver.Run();
    });
  }
  using Clock = std::chrono::steady_clock;
  auto to_time = [](uint64_t ns) {
    return Clock::time_point(std::chrono::nanoseconds(ns));
  };
  const uint64_t span = run->window.to_ns - run->window.from_ns;
  for (int k = 0; k <= kSlices && !stop.load(); ++k) {
    std::this_thread::sleep_until(to_time(run->window.from_ns + span * k / kSlices));
    at_boundary(k);
  }
  stop.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  for (const TenantRun& t : run->tenants) {
    if (!t.failure.empty() && run->failure.empty()) {
      run->failure = t.failure;
    }
  }
}

// ---------------------------------------------------------------------------
// The daemon child.
// ---------------------------------------------------------------------------

bool WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = write(fd, p, len);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAllTimeout(int fd, void* data, size_t len, int timeout_ms) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      return false;
    }
    ssize_t n = read(fd, p, len);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

// Child side: boot the daemon, report readiness, then answer 'r' (store
// resident bytes) until 'q' or EOF. Never returns.
[[noreturn]] void DaemonChildMain(const std::string& socket_path, int cmd_fd, int reply_fd) {
  int code = 0;
  {
    auto daemon = lw::CheckpointDaemon::StartUnix(socket_path, DaemonOptions());
    uint8_t ready = daemon.ok() ? 1 : 0;
    if (!WriteAll(reply_fd, &ready, 1) || !daemon.ok()) {
      code = 3;
    } else {
      char command = 0;
      while (true) {
        ssize_t n = read(cmd_fd, &command, 1);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n != 1 || command != 'r') {
          break;
        }
        uint64_t resident = (*daemon)->store()->stats().bytes_resident();
        if (!WriteAll(reply_fd, &resident, sizeof(resident))) {
          break;
        }
      }
      (*daemon)->Stop();
    }
  }
  _exit(code);
}

// Parent side: the forked serving process. Always reaped: Stop() asks it to
// quit and waits, escalating to SIGKILL; the destructor calls Stop().
class DaemonChild {
 public:
  static lw::Result<std::unique_ptr<DaemonChild>> Start(const std::string& socket_path) {
    int cmd[2];
    int reply[2];
    if (pipe2(cmd, O_CLOEXEC) != 0) {
      return lw::IoError("pipe failed");
    }
    if (pipe2(reply, O_CLOEXEC) != 0) {
      close(cmd[0]);
      close(cmd[1]);
      return lw::IoError("pipe failed");
    }
    pid_t parent = getpid();
    pid_t pid = fork();
    if (pid < 0) {
      close(cmd[0]);
      close(cmd[1]);
      close(reply[0]);
      close(reply[1]);
      return lw::IoError("fork failed");
    }
    if (pid == 0) {
      // Die with the bench: a killed or crashed parent leaves no daemon.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) {
        _exit(2);
      }
      close(cmd[1]);
      close(reply[0]);
      DaemonChildMain(socket_path, cmd[0], reply[1]);
    }
    close(cmd[0]);
    close(reply[1]);
    std::unique_ptr<DaemonChild> child(new DaemonChild(pid, cmd[1], reply[0]));
    uint8_t ready = 0;
    if (!ReadAllTimeout(child->reply_fd_, &ready, 1, kChildTimeoutMs) || ready != 1) {
      return lw::Internal("daemon child failed to start");
    }
    return child;
  }

  ~DaemonChild() { Stop(); }
  DaemonChild(const DaemonChild&) = delete;
  DaemonChild& operator=(const DaemonChild&) = delete;

  pid_t pid() const { return pid_; }

  bool QueryResident(uint64_t* bytes) {
    char command = 'r';
    return WriteAll(cmd_fd_, &command, 1) &&
           ReadAllTimeout(reply_fd_, bytes, sizeof(*bytes), kChildTimeoutMs);
  }

  // Quits and reaps the child; true iff it exited cleanly with status 0.
  bool Stop() {
    if (pid_ <= 0) {
      return clean_;
    }
    char command = 'q';
    WriteAll(cmd_fd_, &command, 1);
    close(cmd_fd_);
    int status = 0;
    bool reaped = false;
    for (int waited_ms = 0; waited_ms < kChildTimeoutMs; waited_ms += 10) {
      pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) {
        reaped = r == pid_;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      kill(pid_, SIGKILL);
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    close(reply_fd_);
    clean_ = reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
    return clean_;
  }

 private:
  DaemonChild(pid_t pid, int cmd_fd, int reply_fd)
      : pid_(pid), cmd_fd_(cmd_fd), reply_fd_(reply_fd) {}

  pid_t pid_;
  int cmd_fd_;
  int reply_fd_;
  bool clean_ = false;
};

// ---------------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------------

struct RemoteRun {
  FleetRun fleet;
  double setup_s = 0;
  double cpu_ms_per_op = 0;
  double peak_rss_mb = 0;
  double store_resident_mb = 0;
};

// Boots the daemon child and connects the tenants kSetupRepeats times (all
// but the last torn down again), so setup_s is a median. Forks happen while
// this process has no other thread.
void RunRemote(const RunConfig& config, Shape shape, RemoteRun* out) {
  ScopedTempDir dir(config.tmp_base, "fabric-");
  if (!dir.ok()) {
    out->fleet.failure = "setup: mkdtemp failed under " + config.tmp_base;
    return;
  }
  const std::string socket_path = dir.path() + "/daemon.sock";
  std::vector<double> setups;
  std::unique_ptr<DaemonChild> child;
  std::vector<std::unique_ptr<RemoteTransport>> remotes;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    remotes.clear();
    if (child != nullptr && !child->Stop()) {
      out->fleet.failure = "teardown: daemon child did not exit cleanly";
      return;
    }
    child.reset();
    uint64_t t0 = NowNs();
    auto started = DaemonChild::Start(socket_path);
    if (!started.ok()) {
      out->fleet.failure = "setup: " + started.status().ToString();
      return;
    }
    child = *std::move(started);
    for (int i = 0; i < kTenants; ++i) {
      auto client = lw::RemoteCheckpointClient::ConnectUnix(socket_path);
      if (!client.ok()) {
        out->fleet.failure = "setup: connect: " + client.status().ToString();
        return;
      }
      auto session = (*client)->OpenSession();
      if (!session.ok()) {
        out->fleet.failure = "setup: open session: " + session.status().ToString();
        return;
      }
      remotes.push_back(std::make_unique<RemoteTransport>(*std::move(client), *session));
    }
    setups.push_back((NowNs() - t0) / 1e9);
  }
  out->setup_s = Median(setups);

  std::vector<Transport*> transports;
  for (auto& r : remotes) {
    transports.push_back(r.get());
  }
  // The serving process's CPU and store residency at every slice boundary.
  std::vector<uint64_t> cpu(kSlices + 1, 0);
  std::vector<double> resident;
  bool sampled = true;
  DriveFleet(
      config, shape, transports,
      [&](int k) {
        uint64_t bytes = 0;
        sampled = ProcessCpuNs(child->pid(), &cpu[static_cast<size_t>(k)]) &&
                  child->QueryResident(&bytes) && sampled;
        resident.push_back(bytes / 1048576.0);
      },
      &out->fleet);
  out->peak_rss_mb = ProcessPeakRssBytes(child->pid()) / 1048576.0;
  remotes.clear();
  bool clean = child->Stop();
  if (!out->fleet.failure.empty()) {
    return;
  }
  if (!sampled || out->peak_rss_mb == 0) {
    out->fleet.failure = "measure: could not read the daemon child's /proc counters";
    return;
  }
  if (!clean) {
    out->fleet.failure = "teardown: daemon child did not exit cleanly";
    return;
  }
  // Per-slice CPU per solve, median over slices.
  std::vector<uint64_t> ops = out->fleet.SliceOps();
  std::vector<double> cpu_per_op;
  for (size_t k = 0; k < ops.size(); ++k) {
    if (ops[k] == 0) {
      out->fleet.failure = "a slice of the window completed no solve";
      return;
    }
    cpu_per_op.push_back((cpu[k + 1] - cpu[k]) / 1e6 / static_cast<double>(ops[k]));
  }
  out->cpu_ms_per_op = Median(cpu_per_op);
  out->store_resident_mb = Median(resident);
}

// Replays each tenant's first requests in-process, driven exactly as the
// daemon drives its services (empty-root boot, then the same encoded bytes),
// and demands bit-identical outcomes.
std::string CheckParity(const std::vector<TenantRun>& tenants) {
  lw::SolverService service(ServiceOptions());
  lw::Cnf empty;
  auto root = service.SolveRoot(empty);
  if (!root.ok()) {
    return "parity: empty-root boot failed: " + root.status().ToString();
  }
  for (size_t t = 0; t < tenants.size(); ++t) {
    const std::vector<LoggedRequest>& log = tenants[t].log;
    std::vector<lw::Checkpoint> handles(log.size());
    for (size_t i = 0; i < log.size() && log[i].answered; ++i) {
      const LoggedRequest& entry = log[i];
      const lw::Checkpoint& parent =
          entry.parent < 0 ? root->token : handles[static_cast<size_t>(entry.parent)];
      auto replay = service.ExtendEncoded(parent, entry.bytes.data(), entry.bytes.size());
      if (!replay.ok()) {
        return "parity: replay failed: " + replay.status().ToString();
      }
      const lw::RemoteOutcome& remote = entry.outcome;
      if (replay->result.raw() != remote.result.raw() || replay->conflicts != remote.conflicts ||
          replay->num_vars != remote.num_vars || replay->model_bits != remote.model_bits) {
        return "parity: tenant " + std::to_string(t) + " request " + std::to_string(i) +
               " differs from its in-process replay";
      }
      handles[i] = std::move(replay->token);
    }
  }
  return "";
}

struct InProcessRun {
  FleetRun fleet;
  JobCounters totals;  // summed over the traced solve jobs
  uint64_t traced_jobs = 0;
  lw::PageStore::Stats store_begin;
  lw::PageStore::Stats store_end;
};

// (B) / (C): the tenant scripts through a ServicePool with the daemon's pool
// options (shared default store, empty-root boot, no per-session budget).
void RunInProcess(const RunConfig& config, Shape shape, int tenants, InProcessRun* out) {
  const lw::Cnf empty;  // outlives the pool: boot jobs read it
  lw::ServicePoolOptions<lw::SolverService> pool_options;
  pool_options.num_services = tenants;
  pool_options.service = ServiceOptions();
  lw::ServicePool<lw::SolverService> pool(pool_options);
  std::vector<std::future<lw::Result<lw::SolverService::Outcome>>> boots;
  for (int i = 0; i < tenants; ++i) {
    boots.push_back(pool.Submit(i, [&empty](lw::SolverService& s) { return s.SolveRoot(empty); }));
  }
  std::vector<std::unique_ptr<PoolTransport>> pools;
  std::vector<Transport*> transports;
  for (int i = 0; i < tenants; ++i) {
    auto root = boots[static_cast<size_t>(i)].get();
    if (!root.ok()) {
      out->fleet.failure = "in-process boot failed: " + root.status().ToString();
      return;
    }
    pools.push_back(std::make_unique<PoolTransport>(pool, i, std::move(root->token)));
    transports.push_back(pools.back().get());
  }
  const std::shared_ptr<lw::PageStore>& store = pool.store();
  DriveFleet(
      config, shape, transports,
      [&](int k) {
        if (k == 0) {
          out->store_begin = store->stats();
        } else if (k == kSlices) {
          out->store_end = store->stats();
        }
      },
      &out->fleet);
  for (const auto& p : pools) {
    out->totals.Add(p->totals());
    out->traced_jobs += p->traced_jobs();
  }
}

void Account(const FleetRun& fleet, Report* report) {
  for (const TenantRun& t : fleet.tenants) {
    report->attempted += t.attempted;
    report->failed += t.failed;
  }
  if (!fleet.failure.empty()) {
    report->Fail(fleet.failure);
  }
}

std::vector<uint64_t> MergedLatencies(const FleetRun& fleet) {
  std::vector<uint64_t> all;
  for (const TenantRun& t : fleet.tenants) {
    all.insert(all.end(), t.latencies.begin(), t.latencies.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Reduces a traced part's spans over its window, writes them to
// <trace_path>.<part>.json, and frees them before the next part runs.
std::map<std::string, SpanStats> Harvest(const RunConfig& config, const char* part,
                                         FleetRun* fleet, Report* report) {
  auto stats = ReduceSpans(fleet->TracerViews(), fleet->window.from_ns, fleet->window.to_ns);
  if (!config.trace_path.empty()) {
    std::string path = config.trace_path + "." + part + ".json";
    if (!WriteChromeTrace(path, part, fleet->TracerViews(), kTraceFileSpans)) {
      report->Fail("trace: could not write " + path);
    }
  }
  fleet->tracers.clear();
  return stats;
}

}  // namespace

bool IsFabricWorkload(const std::string& workload) {
  return workload == "fabric_small" || workload == "fabric_large";
}

void RunFabric(const RunConfig& config, Report* report, Values* values) {
  const Shape shape = ShapeOf(config.workload);
  Values& v = *values;

  // End-to-end numbers always come from an untraced remote run; the traced
  // run repeats it to measure tracing overhead against the same code.
  RunConfig plain_config = config;
  plain_config.trace = false;
  RemoteRun plain;
  RunRemote(plain_config, shape, &plain);
  Account(plain.fleet, report);
  if (!report->failure.empty()) {
    return;
  }
  report->Fail(CheckParity(plain.fleet.tenants));
  if (!report->failure.empty()) {
    return;
  }
  const double plain_throughput = plain.fleet.Throughput();
  uint64_t extends = 0;
  uint64_t unsat = 0;
  for (const TenantRun& t : plain.fleet.tenants) {
    extends += t.extends;
    unsat += t.unsat_extends;
  }
  if (!config.trace) {
    std::vector<uint64_t> latencies = MergedLatencies(plain.fleet);
    v["throughput_ops_s"] = plain_throughput;
    v["lat_p50_ms"] = PercentileSorted(latencies, 50) / 1e6;
    v["lat_p99_ms"] = PercentileSorted(latencies, 99) / 1e6;
    v["cpu_ms_per_op"] = plain.cpu_ms_per_op;
    v["peak_rss_mb"] = plain.peak_rss_mb;
    v["store_resident_mb"] = plain.store_resident_mb;
    v["setup_s"] = plain.setup_s;
    return;
  }

  RemoteRun traced;  // (A)
  RunRemote(config, shape, &traced);
  Account(traced.fleet, report);
  if (!report->failure.empty()) {
    return;
  }
  const double traced_throughput = traced.fleet.Throughput();
  auto a = Harvest(config, "remote", &traced.fleet, report);
  InProcessRun fleet;  // (B)
  RunInProcess(config, shape, kTenants, &fleet);
  Account(fleet.fleet, report);
  if (!report->failure.empty()) {
    return;
  }
  auto b = Harvest(config, "fleet", &fleet.fleet, report);
  InProcessRun solo;  // (C)
  RunInProcess(config, shape, 1, &solo);
  Account(solo.fleet, report);
  Harvest(config, "solo", &solo.fleet, report);
  if (report->failure.empty() && (fleet.traced_jobs == 0 || solo.traced_jobs == 0)) {
    report->Fail("trace: no solve job was traced");
  }
  if (!report->failure.empty()) {
    return;
  }

  v["trace.overhead_frac"] = 1 - traced_throughput / plain_throughput;
  v["solver.unsat_extend_share"] = Ratio(static_cast<double>(unsat), static_cast<double>(extends));

  const double remote_p50 = a["client.solve"].PercentileUs(50);
  const double inproc_p50 = b["pool.solve"].PercentileUs(50);
  v["net.fabric_self_us"] = remote_p50 - inproc_p50;
  v["net.fabric_remote_p50_us"] = remote_p50;
  v["net.fabric_inproc_p50_us"] = inproc_p50;
  v["net.client_encode_us"] = a["client.encode"].MeanUs();
  v["net.client_send_us"] = a["client.send"].MeanUs();
  v["net.client_wait_us"] = a["client.wait"].MeanUs();
  v["net.client_release_us"] = a["client.release"].MeanUs();
  v["pool.queue_wait_p50_us"] = b["pool.queue_wait"].PercentileUs(50);
  v["pool.queue_wait_p99_us"] = b["pool.queue_wait"].PercentileUs(99);
  // Submit -> ready minus queue wait and the service call: job bookkeeping
  // and the completion wake-up.
  v["pool.handoff_us"] = b["pool.solve"].SelfMeanUs();
  v["service.release_us"] = b["service.release"].MeanUs();

  // The service call split by the session's own timers (same traced jobs).
  const JobCounters& t = fleet.totals;
  const double jobs = static_cast<double>(fleet.traced_jobs);
  const double extend_us = t.extend_ns / 1e3 / jobs;
  const double restore_us = t.restore_ns / 1e3 / jobs;
  const double materialize_us = t.snapshot_ns / 1e3 / jobs;
  const double solo_extend_us = solo.totals.extend_ns / 1e3 / static_cast<double>(solo.traced_jobs);
  v["service.extend_us"] = extend_us;
  v["session.restore_us"] = restore_us;
  v["session.materialize_us"] = materialize_us;
  v["guest.run_us"] = extend_us - restore_us - materialize_us;
  v["fleet.contention_factor"] = extend_us / solo_extend_us;
  v["fleet.solo_extend_us"] = solo_extend_us;
  v["session.guesses"] = t.guesses / jobs;
  v["engine.pages_materialized"] = t.pages_materialized / jobs;
  v["engine.pages_restored"] = t.pages_restored / jobs;
  v["engine.cow_faults"] = t.cow_faults / jobs;
  v["engine.hot_promotions"] = t.hot_promotions / jobs;
  v["engine.restore_mprotect_calls"] = t.restore_mprotect_calls / jobs;
  v["engine.restore_runs"] = t.restore_runs / jobs;
  v["engine.restore_skip_ratio"] =
      Ratio(static_cast<double>(t.restore_skipped),
            static_cast<double>(t.restore_skipped + t.pages_restored));
  v["ladder.evictions"] = t.evictions / jobs;

  // Store-wide counters over (B)'s window, per solve completed in it.
  const lw::PageStore::Stats& s0 = fleet.store_begin;
  const lw::PageStore::Stats& s1 = fleet.store_end;
  const double ops = static_cast<double>(fleet.fleet.WindowOps());
  const double published = static_cast<double>(s1.total_published - s0.total_published);
  const double hits = static_cast<double>(s1.zero_dedup_hits - s0.zero_dedup_hits +
                                          s1.content_dedup_hits - s0.content_dedup_hits);
  v["store.publishes"] = published / ops;
  v["store.dedup_hit_ratio"] = Ratio(hits, hits + published);
  v["store.cross_session_dedup"] =
      (s1.cross_session_dedup_hits - s0.cross_session_dedup_hits) / ops;
  v["store.release_shard_locks"] = (s1.release_shard_locks - s0.release_shard_locks) / ops;
  v["store.blobs_recycled"] = (s1.blobs_recycled_batched - s0.blobs_recycled_batched) / ops;
  v["ladder.compressions"] = (s1.compressions - s0.compressions) / ops;
  v["ladder.compress_success_ratio"] =
      Ratio(static_cast<double>(s1.compressions - s0.compressions),
            static_cast<double>(s1.compression_attempts - s0.compression_attempts));
  v["ladder.decompressions"] = (s1.decompressions - s0.decompressions) / ops;
  v["ladder.spills"] = (s1.spills - s0.spills) / ops;
  v["ladder.faultbacks"] = (s1.faultbacks - s0.faultbacks) / ops;
  v["ladder.ram_over_logical"] =
      Ratio(static_cast<double>(s1.bytes_live()), static_cast<double>(s1.bytes_logical()));

  if (v["guest.run_us"] < 0) {
    report->Fail("trace: restore + materialize exceed the service call they sit in");
  }
}

}  // namespace lwbench
