#include "src/snapshot/parallel_materializer.h"

#include <algorithm>

namespace lw {

ParallelMaterializer::ParallelMaterializer(const ParallelMaterializerOptions& options)
    : options_(options) {
  LW_CHECK_MSG(options_.chunk_slots > 0, "parallel materializer: chunk_slots must be > 0");
}

ParallelMaterializer::~ParallelMaterializer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : team_) {
    worker.join();
  }
}

void ParallelMaterializer::EnsureStarted() {
  if (!team_.empty() || options_.workers <= 1) {
    return;
  }
  team_.reserve(options_.workers - 1);
  for (uint32_t i = 0; i + 1 < options_.workers; ++i) {
    team_.emplace_back([this] { WorkerMain(); });
  }
}

void ParallelMaterializer::WorkerMain() {
  uint64_t seen_gen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen_gen] { return stop_ || job_gen_ != seen_gen; });
      if (stop_) {
        return;
      }
      seen_gen = job_gen_;
    }
    WorkChunks();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--job_workers_left_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

void ParallelMaterializer::WorkChunks() {
  const size_t chunk_slots = options_.chunk_slots;
  while (!job_failed_.load(std::memory_order_relaxed)) {
    const size_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= num_chunks_) {
      return;
    }
    const size_t begin = chunk * chunk_slots;
    const size_t end = std::min(begin + chunk_slots, job_count_);
    for (size_t slot = begin; slot < end; ++slot) {
      Status status = (*job_fn_)(slot);
      if (!status.ok()) {
        RecordError(chunk, std::move(status));
        return;
      }
    }
  }
}

void ParallelMaterializer::RecordError(size_t chunk, Status status) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (chunk < error_chunk_) {
    error_chunk_ = chunk;
    error_status_ = std::move(status);
  }
  job_failed_.store(true, std::memory_order_release);
}

Status ParallelMaterializer::Run(size_t count, const SlotFn& fn) {
  if (count == 0) {
    return OkStatus();
  }
  // Sub-chunk jobs (the CoW engine's usual 1-to-few dirty pages) never pay
  // for a wakeup: serial inline, same slot order, same result table.
  if (options_.workers <= 1 || count <= options_.chunk_slots) {
    for (size_t slot = 0; slot < count; ++slot) {
      Status status = fn(slot);
      if (!status.ok()) {
        return status;
      }
    }
    return OkStatus();
  }
  EnsureStarted();
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error_chunk_ = SIZE_MAX;
    error_status_ = OkStatus();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_count_ = count;
    num_chunks_ = (count + options_.chunk_slots - 1) / options_.chunk_slots;
    job_fn_ = &fn;
    next_chunk_.store(0, std::memory_order_relaxed);
    job_failed_.store(false, std::memory_order_relaxed);
    job_workers_left_ = static_cast<uint32_t>(team_.size());
    ++job_gen_;
  }
  work_cv_.notify_all();
  WorkChunks();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return job_workers_left_ == 0; });
    job_fn_ = nullptr;
  }
  if (job_failed_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(error_mu_);
    return error_status_;
  }
  return OkStatus();
}

}  // namespace lw
