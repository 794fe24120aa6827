#include "axnn/tensor/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

namespace axnn {

namespace {

std::atomic<int> g_requested_threads{0};
std::atomic<bool> g_global_created{false};

/// Set for the lifetime of worker_loop; read by ThreadPool::current().
thread_local ThreadPool* t_worker_pool = nullptr;

int resolve_thread_count(int threads) {
  if (threads > 0) return threads;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  threads = resolve_thread_count(threads);
  // One dispatch enqueues at most threads-1 tasks; ring capacity for a few
  // overlapping outside dispatchers avoids even the first-growth realloc in
  // the common case.
  ring_.resize(static_cast<size_t>(threads) * 4 + 4);
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool* ThreadPool::current() { return t_worker_pool; }

void ThreadPool::push_locked(const Task& t) {
  if (task_count_ == ring_.size()) {
    // Grow by relinearising into a fresh buffer (rare: only when overlapping
    // dispatches exceed the pre-sized capacity, and never twice for the same
    // peak load).
    std::vector<Task> grown(ring_.size() * 2);
    for (size_t i = 0; i < task_count_; ++i) grown[i] = ring_[(ring_head_ + i) % ring_.size()];
    ring_ = std::move(grown);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + task_count_) % ring_.size()] = t;
  ++task_count_;
}

ThreadPool::Task ThreadPool::pop_locked() {
  Task t = ring_[ring_head_];
  ring_head_ = (ring_head_ + 1) % ring_.size();
  --task_count_;
  return t;
}

ThreadPool::Split ThreadPool::plan_split(int inter_hint, int hw) {
  hw = resolve_thread_count(hw);
  Split s;
  s.inter = std::clamp(inter_hint, 1, hw);
  s.intra = std::max(1, hw / s.inter);
  return s;
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_empty(); });
      if (stop_ && queue_empty()) return;
      task = pop_locked();
    }
    std::exception_ptr error;
    try {
      task.job->invoke(task.job->ctx, task.begin, task.end);
    } catch (...) {
      error = std::current_exception();
    }
    finish_chunk(*task.job, error);
  }
}

void ThreadPool::finish_chunk(Job& job, const std::exception_ptr& error) {
  // Keep the first exception; the submitting thread rethrows it after the
  // whole invocation drains. The Job lives on the submitter's stack, so it
  // may be gone the moment this lock is released.
  std::lock_guard<std::mutex> lk(job.mu);
  if (error && !job.error) job.error = error;
  if (--job.remaining == 0) job.cv.notify_one();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(g_requested_threads.load());
  g_global_created.store(true);
  return pool;
}

void ThreadPool::set_global_threads(int threads) {
  const int resolved = resolve_thread_count(threads);
  if (g_global_created.load()) {
    if (resolved == global().size()) return;  // already what the caller wants
    throw std::logic_error(
        "ThreadPool::set_global_threads(" + std::to_string(threads) +
        "): global pool already created with " + std::to_string(global().size()) +
        " threads; pin the size before the first kernel runs, or pass an explicit "
        "ThreadPool to the kernel");
  }
  g_requested_threads.store(threads);
}

void ThreadPool::run_chunks(int64_t n, int64_t chunk, int64_t chunks, ChunkFn invoke,
                            const void* ctx) {
  Job job{invoke, ctx, {}, {}, chunks, nullptr};
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (int64_t c = 1; c < chunks; ++c) {
      const int64_t b = c * chunk;
      const int64_t e = std::min<int64_t>(n, b + chunk);
      push_locked(Task{&job, b, e});
    }
  }
  cv_.notify_all();

  // The calling thread takes the first chunk. Its exception is captured too
  // so the wait below always happens — queued tasks point at this frame.
  std::exception_ptr error;
  try {
    invoke(ctx, 0, std::min<int64_t>(n, chunk));
  } catch (...) {
    error = std::current_exception();
  }
  finish_chunk(job, error);
  std::unique_lock<std::mutex> lk(job.mu);
  job.cv.wait(lk, [&] { return job.remaining == 0; });
  // All chunks are done; rethrow the first failure on the submitting thread.
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace axnn
