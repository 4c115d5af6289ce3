// Host thread pool used to execute blocks of the simulated GPU grid.
//
// The APNN-TC kernels are written as loops over thread blocks; on the host we
// farm independent blocks across a pool. Exceptions thrown by tasks are
// captured and rethrown on the caller's thread.
//
// Pools can be carved into disjoint slices: each InferenceServer replica owns
// a private pool (optionally pinned to a CPU range) instead of all replicas
// oversubscribing the process-global pool. Slices registered in one
// WorkStealGroup steal queued chunk tasks from busy siblings when idle.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace apnn {

class ThreadPool;

/// Non-owning reference to a loop body `void(std::int64_t)`: a pointer to the
/// callable and a pointer to a function that invokes it. Building one never
/// allocates, whatever the callable captures. The callable must outlive
/// every call through the reference; a parallel_for argument does, since the
/// call returns only after the last index has run.
class LoopBody {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, LoopBody> &&
             std::is_invocable_v<F&, std::int64_t>)
  LoopBody(F&& f) noexcept  // implicit: call sites pass lambdas as-is
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, std::int64_t i) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(i);
        }) {}

  void operator()(std::int64_t i) const { call_(obj_, i); }

 private:
  void* obj_;
  void (*call_)(void*, std::int64_t);
};

/// Registry that lets idle member pools steal queued chunk tasks from busy
/// siblings. Members register at construction and unregister at destruction;
/// the group must outlive every member pool. A queued task is a pointer to
/// its parallel_for's loop state, which lives in the caller's frame; the
/// caller outlives every helper it queued (it returns only once each one has
/// been erased from its queue or has exited, stolen ones included), so a task
/// may safely run on any thread in the group.
class WorkStealGroup {
 public:
  WorkStealGroup() = default;
  WorkStealGroup(const WorkStealGroup&) = delete;
  WorkStealGroup& operator=(const WorkStealGroup&) = delete;

  /// Total tasks stolen across the group's lifetime.
  std::int64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Number of currently registered pools.
  int pools() const;

 private:
  friend class ThreadPool;

  void add(ThreadPool* pool);
  void remove(ThreadPool* pool);
  /// Bumps the group-wide pending count and wakes idle siblings of `owner`.
  void note_enqueued(std::int64_t n, ThreadPool* owner);
  void note_dequeued(std::int64_t n) {
    pending_.fetch_sub(n, std::memory_order_acq_rel);
  }
  std::int64_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }
  /// Pops one task from a sibling of `thief` and runs it on this thread.
  bool steal_and_run(ThreadPool* thief);
  /// Worker threads owned by members other than `self` (helper budget).
  std::int64_t workers_besides(const ThreadPool* self) const;

  mutable std::mutex mu_;
  std::vector<ThreadPool*> members_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<std::int64_t> steals_{0};
  std::atomic<std::int64_t> total_workers_{0};
};

/// Construction knobs for a pool slice. The plain ThreadPool(unsigned)
/// constructor is equivalent to only setting num_threads.
struct ThreadPoolOptions {
  /// Logical width including the calling thread; 0 = hardware_concurrency().
  unsigned num_threads = 0;
  /// Pin worker threads to `cpus` (Linux; best-effort, ignored elsewhere).
  bool pin_threads = false;
  /// CPU ids for pinning: cpus[0] is reserved for the caller/dispatcher slot
  /// (pin it yourself via pin_current_thread), workers take cpus[1..]. Empty
  /// with pin_threads set derives the identity mapping 0..num_threads-1.
  std::vector<int> cpus;
  /// When false, a blocked parallel_for caller waits on the loop's own
  /// completion signal instead of running unrelated queued tasks, so a
  /// latency-sensitive caller (a replica serving deadline traffic) never
  /// absorbs a foreign task. The global pool keeps foreign help.
  bool help_foreign = true;
  /// Optional stealing group; must outlive the pool.
  WorkStealGroup* steal_group = nullptr;
};

/// Fixed-size worker pool with a blocking parallel_for.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(unsigned num_threads = 0);
  explicit ThreadPool(const ThreadPoolOptions& opts);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads spawned (logical width minus the participating caller).
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs fn(i) for i in [begin, end), partitioned into chunks of `grain`
  /// indices, blocking until every index has completed. The calling thread
  /// participates in the work. Rethrows the first task exception. Makes no
  /// heap allocation of its own: `fn` refers to the caller's callable, the
  /// loop state lives in this call's frame, and the helper queue only grows
  /// when full (once, if at all, for a warmed pool).
  void parallel_for(std::int64_t begin, std::int64_t end, LoopBody fn,
                    std::int64_t grain = 1);

  /// Tasks currently sitting in this pool's queue (introspection for tests).
  std::size_t queued_tasks() const;

  /// Identity of the pool whose work the calling thread is currently
  /// executing (nullptr outside any pool task). Used purely as an opaque key
  /// — e.g. ScratchArena::tls() keys arenas per (thread x pool) so a slice's
  /// slabs are touched only by the cores that consume them. Never
  /// dereference: the pool may be gone by the time the key is compared.
  static const void* current_key();

  /// Best-effort affinity pin for the calling thread (Linux; returns false
  /// elsewhere or on failure). Exposed so a server can pin its dispatcher
  /// threads onto their replica's CPU slot.
  static bool pin_current_thread(int cpu);

  /// Process-wide pool (lazily constructed).
  static ThreadPool& global();

 private:
  friend class WorkStealGroup;

  /// One parallel_for's state, on the caller's stack (defined in the .cpp).
  struct Loop;

  void start(unsigned num_threads);
  void worker_loop(unsigned index);
  bool run_one();  // returns false if queue empty

  // Queue of helper tasks, guarded by mu_. A task is the Loop* of the
  // parallel_for that queued it — which is also its tag for erasing stale
  // helpers. The ring grows only when full and never shrinks, so a warmed
  // pool queues and dequeues without touching the heap.
  void enqueue_locked(Loop* loop, std::size_t n);
  Loop* dequeue_locked();
  std::size_t erase_locked(const Loop* loop);

  std::vector<std::thread> workers_;
  std::vector<Loop*> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  unsigned started_ = 0;  ///< workers past start-up (start() waits on it)
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool help_foreign_ = true;
  bool pin_threads_ = false;
  std::vector<int> cpus_;
  WorkStealGroup* group_ = nullptr;
};

/// Convenience wrapper over ThreadPool::global().
void parallel_for(std::int64_t begin, std::int64_t end, LoopBody fn,
                  std::int64_t grain = 1);

}  // namespace apnn
