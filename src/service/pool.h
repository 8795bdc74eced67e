// ServicePool<S>: the checkpoint-service fleet, generic over the service type.
//
// The paper pitches lightweight snapshots as a *system-level service*: many
// clients, one substrate. PR 3 built this for the SAT solver alone; this
// template gives the same shape — K services, each owned by a dedicated
// worker thread, all publishing through one internally-synchronized PageStore
// — to any service S (SolverService, PrologService, SymxService, ...).
//
// Requirements on S:
//   * `typename S::Options` with an embedded `ServiceTuning tuning` block
//     (src/service/tuning.h) — every service is constructed with the
//     fleet's one shared store in `tuning.store`;
//   * constructible as S(S::Options) on the worker thread;
//   * `const SessionStats& session_stats() const` for fleet accounting.
//
// Checkpoint handles are service-affine (a checkpoint is a snapshot inside
// one service's arena), so every job names the service it runs on and the
// pool routes it to that worker's queue; jobs for different services run in
// parallel, jobs for one service run in submission order. A handle submitted
// to the wrong service fails validation inside that service (InvalidArgument
// through the future), never corrupts it.
//
// Threading contract:
//   * Each service (and its BacktrackSession, arena, and SIGSEGV state) is
//     constructed on its worker thread and never touched by any other thread
//     — sessions are thread-affine; the shared PageStore and each session's
//     checkpoint reclaim queue are the only cross-thread objects, and both
//     synchronize internally.
//   * Submit may be called from any thread; results come back through
//     std::future. Per-service FIFO order means a caller can enqueue
//     dependent jobs back-to-back without waiting in between.
//   * A job whose callable returns an error Result/Status fails only its own
//     future: the worker samples stats, publishes the result, and moves on to
//     the next queued job (drain never wedges on a failed job).
//   * The destructor drains every queue (pending jobs still run), then joins.

#ifndef LWSNAP_SRC_SERVICE_POOL_H_
#define LWSNAP_SRC_SERVICE_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/service/tuning.h"
#include "src/snapshot/page_store.h"
#include "src/util/status.h"

namespace lw {

// Per-service counters summed over the fleet. Store-wide counters live in
// `store()->stats()`.
struct ServiceFleetStats {
  uint64_t jobs_executed = 0;
  uint64_t snapshots = 0;
  uint64_t restores = 0;
  uint64_t checkpoints = 0;
};

template <typename S>
struct ServicePoolOptions {
  int num_services = 4;  // one worker thread per service

  // Per-service template. Every service shares one store:
  // `service.tuning.store` when set, otherwise one store the pool builds from
  // `service.tuning.store_options` (so `spill_dir` gives the fleet a spill
  // tier). `service.tuning.snapshot_mode` applies to every service in the
  // fleet. Each service's session runs on its worker thread, so a fleet
  // occupies up to num_services cores: size num_services to the cores the
  // fleet may use.
  typename S::Options service;
};

template <typename S>
class ServicePool {
 public:
  using Options = ServicePoolOptions<S>;

  explicit ServicePool(Options options) : options_(std::move(options)) {
    LW_CHECK_MSG(options_.num_services > 0, "service pool needs at least one service");
    ServiceTuning& tuning = options_.service.tuning;
    if (tuning.store == nullptr) {
      tuning.store = std::make_shared<PageStore>(tuning.store_options);
    }
    workers_.reserve(static_cast<size_t>(options_.num_services));
    for (int i = 0; i < options_.num_services; ++i) {
      workers_.push_back(std::make_unique<Worker>());
    }
    // Split construction from thread start so a mid-loop failure never leaves
    // a worker thread pointing at a vector that is still growing.
    for (auto& worker : workers_) {
      Worker* w = worker.get();
      w->thread = std::thread([this, w] { WorkerMain(*w); });
    }
  }

  ~ServicePool() {
    for (auto& worker : workers_) {
      {
        std::lock_guard<std::mutex> lock(worker->mu);
        worker->stop = true;
      }
      worker->cv.notify_one();
    }
    for (auto& worker : workers_) {
      worker->thread.join();
    }
    // Workers destroyed their services (and returned every page ref) before
    // exiting; the shared store dies with its last holder.
  }

  ServicePool(const ServicePool&) = delete;
  ServicePool& operator=(const ServicePool&) = delete;

  int num_services() const { return static_cast<int>(workers_.size()); }
  const std::shared_ptr<PageStore>& store() const { return options_.service.tuning.store; }

  // Runs `fn(service)` on worker `service`'s thread; the result comes back
  // through the future. `fn` must be invocable as R(S&) with R != void and
  // move-constructible R (Result<Outcome>, Status, ...). A release job
  // (`s.Release(token)`) frees each dying snapshot map through one batched
  // release, so a fleet draining checkpoints takes the shared store's shard
  // locks per shard per map rather than once per dying blob.
  template <typename Fn>
  auto Submit(int service, Fn fn) -> std::future<std::invoke_result_t<Fn&, S&>> {
    using R = std::invoke_result_t<Fn&, S&>;
    static_assert(!std::is_void_v<R>, "pool jobs must return a value (use Status)");
    // shared_ptr wrappers keep the queued callable copyable (std::function)
    // while the payload — promise, move-only handles inside fn, the result —
    // stays single-owner in practice.
    auto promise = std::make_shared<std::promise<R>>();
    auto result = std::make_shared<std::optional<R>>();
    auto body = std::make_shared<Fn>(std::move(fn));
    std::future<R> future = promise->get_future();
    Job job;
    job.run = [result, body](S& s) { result->emplace((*body)(s)); };
    // Published only after the worker samples stats: a client that waited on
    // the future must see its job reflected in fleet_stats().
    job.publish = [promise, result]() { promise->set_value(std::move(**result)); };
    Enqueue(service, std::move(job));
    return future;
  }

  // Safe to call any time; per-service counters are sampled between jobs.
  ServiceFleetStats fleet_stats() const {
    ServiceFleetStats fleet;
    for (const auto& worker : workers_) {
      std::lock_guard<std::mutex> lock(worker->stats_mu);
      fleet.jobs_executed += worker->jobs_executed;
      fleet.snapshots += worker->session_stats.snapshots;
      fleet.restores += worker->session_stats.restores;
      fleet.checkpoints += worker->session_stats.checkpoints;
    }
    return fleet;
  }

 private:
  struct Job {
    std::function<void(S&)> run;   // computes and stores the result
    std::function<void()> publish;  // fulfills the promise (after stats)
  };

  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> queue;
    bool stop = false;
    // Owned (and only touched) by the worker thread after construction.
    std::unique_ptr<S> service;
    // Sampled by the worker between jobs for fleet_stats readers.
    std::mutex stats_mu;
    SessionStats session_stats;
    uint64_t jobs_executed = 0;
  };

  void WorkerMain(Worker& worker) {
    // The service — session, arena, fault-handler registration, guest heap —
    // is born on this thread and dies on it; no other thread ever touches it.
    worker.service = std::make_unique<S>(options_.service);
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(worker.mu);
        worker.cv.wait(lock, [&worker] { return worker.stop || !worker.queue.empty(); });
        if (worker.queue.empty()) {
          break;  // stop requested and queue drained
        }
        job = std::move(worker.queue.front());
        worker.queue.pop_front();
      }
      job.run(*worker.service);
      {
        std::lock_guard<std::mutex> lock(worker.stats_mu);
        worker.session_stats = worker.service->session_stats();
        ++worker.jobs_executed;
      }
      job.publish();
    }
    worker.service.reset();
  }

  Worker& CheckedWorker(int service) {
    LW_CHECK_MSG(service >= 0 && service < num_services(),
                 "service pool: service index out of range");
    return *workers_[static_cast<size_t>(service)];
  }

  void Enqueue(int service, Job job) {
    Worker& worker = CheckedWorker(service);
    {
      std::lock_guard<std::mutex> lock(worker.mu);
      LW_CHECK_MSG(!worker.stop, "service pool: submit after shutdown");
      worker.queue.push_back(std::move(job));
    }
    worker.cv.notify_one();
  }

  Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SERVICE_POOL_H_
