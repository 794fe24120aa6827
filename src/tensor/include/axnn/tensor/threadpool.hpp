// axnn — shared thread pool and parallel_for helper.
//
// All compute kernels (float GEMM, approximate integer GEMM, im2col) split
// work through ThreadPool::global(). Parallelism is deterministic with
// respect to results: work items never race on output ranges.
//
// parallel_for is templated on the callable: chunks are enqueued as small
// POD tasks pointing at the caller's stack frame, so dispatch costs no
// per-chunk heap allocation or std::function indirection.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace axnn {

class ThreadPool {
public:
  /// Pool with `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// The pool the calling thread is a worker of, or nullptr when called from
  /// a thread no pool owns (the main thread, a std::thread, another pool's
  /// caller). parallel_for uses this to detect same-pool nesting.
  static ThreadPool* current();

  /// An explicit inter-op / intra-op partition of the machine: `inter`
  /// concurrent coarse tasks (batched forwards, independent requests), each
  /// fanning its kernels out over `intra` threads. inter * intra never
  /// exceeds the hardware concurrency it was planned against.
  struct Split {
    int inter = 1;  ///< concurrent coarse tasks
    int intra = 1;  ///< kernel threads available to each task
  };

  /// Plan a Split for `inter_hint` concurrent coarse tasks over `hw` threads
  /// (0 = hardware_concurrency). The hint is clamped to [1, hw] and intra
  /// takes the remaining parallelism (hw / inter, min 1), so a serving
  /// engine batching over an inter-op pool while conv leaves call
  /// parallel_for cannot oversubscribe the machine.
  static Split plan_split(int inter_hint, int hw = 0);

  /// Process-wide pool, created on first use. Size can be pinned beforehand
  /// with set_global_threads(); defaults to hardware concurrency.
  static ThreadPool& global();

  /// Pin the size of the global pool. Contract: must be called before the
  /// first global() call (i.e. before any kernel runs). Once the global pool
  /// exists its size is immutable — calling with a different size then
  /// throws std::logic_error instead of silently doing nothing. Re-requesting
  /// the current size is a no-op. Kernels that must run on a specific thread
  /// count should construct their own ThreadPool and pass it explicitly.
  static void set_global_threads(int threads);

  /// Run fn(begin, end) over [0, n) split into roughly even chunks of at
  /// least `grain` items across the pool (plus the calling thread). Blocks
  /// until every chunk completes. Falls back to inline execution for small n
  /// or single-worker pools.
  ///
  /// Exception safety: the first exception thrown by any chunk (on a worker
  /// or the calling thread) is captured and rethrown here on the submitting
  /// thread after all chunks of this invocation finish — a throwing task
  /// surfaces as a normal catchable exception instead of std::terminate.
  /// Remaining chunks still run (no cancellation); later exceptions of the
  /// same invocation are dropped. The pool stays usable afterwards.
  ///
  /// Nested use: a call from one of this pool's own workers runs inline on
  /// the calling thread. Re-enqueueing would both oversubscribe (the outer
  /// invocation already split the work across every worker) and deadlock
  /// when all workers block waiting on chunks only they could run. Calls
  /// from another pool's workers still fan out normally — that is the
  /// supported inter-op (this pool) / intra-op (other pool) split.
  template <typename Fn>
  void parallel_for(int64_t n, Fn&& fn, int64_t grain = 1) {
    if (n <= 0) return;
    if (grain < 1) grain = 1;
    const int workers = size();
    if (workers <= 1 || n <= grain || current() == this) {
      fn(0, n);
      return;
    }
    const int64_t max_chunks = (n + grain - 1) / grain;
    const int64_t chunks = std::min<int64_t>(workers, max_chunks);
    if (chunks <= 1) {
      fn(0, n);
      return;
    }
    const int64_t chunk = (n + chunks - 1) / chunks;
    run_chunks(n, chunk, chunks, &invoke_thunk<std::remove_reference_t<Fn>>, &fn);
  }

private:
  using ChunkFn = void (*)(const void*, int64_t, int64_t);

  /// One parallel_for invocation; lives on the caller's stack for its
  /// duration, so queued tasks only carry {job, begin, end}. A finishing
  /// chunk decrements `remaining` and notifies while holding `mu`, and never
  /// touches the Job after unlocking: the submitter may return (destroying
  /// the Job) as soon as it observes remaining == 0 under the same mutex.
  struct Job {
    ChunkFn invoke;
    const void* ctx;
    std::mutex mu;
    std::condition_variable cv;
    int64_t remaining;         ///< chunks not yet finished (guarded by mu)
    std::exception_ptr error;  ///< first chunk exception (guarded by mu)
  };
  struct Task {
    Job* job;
    int64_t begin, end;
  };

  template <typename Fn>
  static void invoke_thunk(const void* fn, int64_t begin, int64_t end) {
    (*static_cast<const Fn*>(fn))(begin, end);
  }

  void run_chunks(int64_t n, int64_t chunk, int64_t chunks, ChunkFn invoke, const void* ctx);
  static void finish_chunk(Job& job, const std::exception_ptr& error);
  void worker_loop();

  // Pending tasks live in a grow-once ring buffer (guarded by mu_). A single
  // dispatch enqueues at most size()-1 tasks, so the ring — pre-sized at
  // construction — only reallocates if dispatches from several outside
  // threads overlap, and never again after the peak burst: steady-state
  // dispatch performs zero heap allocations (std::queue would allocate a
  // deque node per push).
  void push_locked(const Task& t);
  Task pop_locked();
  bool queue_empty() const { return task_count_ == 0; }

  std::vector<std::thread> workers_;
  std::vector<Task> ring_;
  size_t ring_head_ = 0;
  size_t task_count_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::global().parallel_for.
template <typename Fn>
inline void parallel_for(int64_t n, Fn&& fn, int64_t grain = 1) {
  ThreadPool::global().parallel_for(n, static_cast<Fn&&>(fn), grain);
}

}  // namespace axnn
