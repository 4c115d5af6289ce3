#include "src/parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "src/common/check.hpp"
#include "src/parallel/scratch.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace apnn {

namespace {

/// Pool whose task (or participating parallel_for) the thread is running.
thread_local const ThreadPool* tls_current_pool = nullptr;

/// RAII save/restore so nested loops and exceptions unwind the key correctly.
struct CurrentPoolScope {
  explicit CurrentPoolScope(const ThreadPool* pool)
      : saved(tls_current_pool) {
    tls_current_pool = pool;
  }
  ~CurrentPoolScope() { tls_current_pool = saved; }
  const ThreadPool* saved;
};

/// Ring entries a pool starts with; more than any single loop's helpers on
/// common widths, so growth is rare and happens once.
constexpr std::size_t kInitialRing = 64;

}  // namespace

/// One parallel_for's state. It lives in the caller's frame and points at the
/// caller's body instead of copying it: the caller returns only once every
/// helper it queued has been erased from the queue or has exited
/// (`outstanding` == 0), so no helper — dequeued, stolen or stale — can
/// outlive the frame.
struct ThreadPool::Loop {
  const LoopBody* fn = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t grain = 1;
  std::int64_t nchunks = 0;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex mu;  // guards error and outstanding; waiters sleep on cv
  std::condition_variable cv;
  std::int64_t outstanding = 0;  ///< queued helpers not yet erased or exited

  bool all_done() const {
    return done.load(std::memory_order_acquire) >= nchunks;
  }

  /// Drains the shared chunk counter. Once every chunk is claimed it returns
  /// without touching fn.
  void run_chunks() {
    for (;;) {
      const std::int64_t c = next.fetch_add(1);
      if (c >= nchunks) return;
      const std::int64_t lo = begin + c * grain;
      const std::int64_t hi = std::min<std::int64_t>(lo + grain, end);
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          for (std::int64_t i = lo; i < hi; ++i) (*fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!failed.exchange(true)) error = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == nchunks) {
        // Notifying under the lock orders the wake after a waiter's
        // predicate check, closing the missed-wakeup window.
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }

  /// Takes `n` helpers out of the outstanding count. The notify happens
  /// under the lock: the caller may destroy this loop as soon as it sees 0
  /// and reacquires the mutex, so nothing here may touch it after unlock.
  void release(std::int64_t n) {
    std::lock_guard<std::mutex> lock(mu);
    outstanding -= n;
    if (outstanding == 0) cv.notify_all();
  }

  /// Body of a dequeued (or stolen) helper task.
  void run_helper() {
    run_chunks();
    release(1);
  }
};

int WorkStealGroup::pools() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(members_.size());
}

void WorkStealGroup::add(ThreadPool* pool) {
  std::lock_guard<std::mutex> lock(mu_);
  members_.push_back(pool);
  total_workers_.fetch_add(static_cast<std::int64_t>(pool->workers_.size()),
                           std::memory_order_relaxed);
}

void WorkStealGroup::remove(ThreadPool* pool) {
  std::lock_guard<std::mutex> lock(mu_);
  members_.erase(std::remove(members_.begin(), members_.end(), pool),
                 members_.end());
  total_workers_.fetch_sub(static_cast<std::int64_t>(pool->workers_.size()),
                           std::memory_order_relaxed);
}

std::int64_t WorkStealGroup::workers_besides(const ThreadPool* self) const {
  const std::int64_t own = static_cast<std::int64_t>(self->workers_.size());
  const std::int64_t total = total_workers_.load(std::memory_order_relaxed);
  return std::max<std::int64_t>(0, total - own);
}

void WorkStealGroup::note_enqueued(std::int64_t n, ThreadPool* owner) {
  pending_.fetch_add(n, std::memory_order_acq_rel);
  // Wake idle sibling workers so they can steal. Taking each sibling's mutex
  // (empty critical section) before notifying orders the wake after its
  // predicate check; the group lock keeps the member alive while we touch it.
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadPool* p : members_) {
    if (p == owner) continue;
    { std::lock_guard<std::mutex> plock(p->mu_); }
    p->cv_.notify_all();
  }
}

bool WorkStealGroup::steal_and_run(ThreadPool* thief) {
  ThreadPool::Loop* loop = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ThreadPool* p : members_) {
      if (p == thief) continue;
      std::lock_guard<std::mutex> plock(p->mu_);
      if (p->count_ == 0) continue;
      loop = p->dequeue_locked();
      break;
    }
    if (loop != nullptr) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      steals_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (loop == nullptr) return false;
  // Outside all locks. The owning caller waits for this helper to exit
  // before its frame (and the loop in it) goes away.
  loop->run_helper();
  return true;
}

ThreadPool::ThreadPool(unsigned num_threads) { start(num_threads); }

ThreadPool::ThreadPool(const ThreadPoolOptions& opts)
    : help_foreign_(opts.help_foreign),
      pin_threads_(opts.pin_threads),
      cpus_(opts.cpus),
      group_(opts.steal_group) {
  unsigned num_threads = opts.num_threads;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (pin_threads_ && cpus_.empty()) {
    for (unsigned i = 0; i < num_threads; ++i) {
      cpus_.push_back(static_cast<int>(i));
    }
  }
  start(num_threads);
  if (group_ != nullptr) group_->add(this);
}

void ThreadPool::start(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // The caller participates in parallel_for, so spawn one fewer worker.
  const unsigned spawned = num_threads > 1 ? num_threads - 1 : 0;
  ring_.resize(kInitialRing);
  workers_.reserve(spawned);
  for (unsigned i = 0; i < spawned; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  // Return only once every worker has built its per-thread state, so none
  // of that first-touch work lands inside a caller's later loop.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return started_ == spawned; });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  if (group_ != nullptr) {
    // After remove() returns no sibling can reach this pool's queue; any
    // leftover tasks (there should be none — loops erase their own stale
    // helpers) are counted out of the group's pending total.
    group_->remove(this);
    if (count_ > 0) {
      group_->note_dequeued(static_cast<std::int64_t>(count_));
    }
  }
}

std::size_t ThreadPool::queued_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

void ThreadPool::enqueue_locked(Loop* loop, std::size_t n) {
  if (count_ + n > ring_.size()) {
    // Full: grow (never shrink), unrolling the live window to start at 0.
    std::vector<Loop*> grown(std::max(2 * ring_.size(), count_ + n));
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = ring_[(head_ + i) % ring_.size()];
    }
    ring_.swap(grown);
    head_ = 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ring_[(head_ + count_++) % ring_.size()] = loop;
  }
}

ThreadPool::Loop* ThreadPool::dequeue_locked() {
  Loop* loop = ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  --count_;
  return loop;
}

std::size_t ThreadPool::erase_locked(const Loop* loop) {
  // Stable in-place compaction of the live window.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    Loop* t = ring_[(head_ + i) % ring_.size()];
    if (t != loop) ring_[(head_ + kept++) % ring_.size()] = t;
  }
  const std::size_t removed = count_ - kept;
  count_ = kept;
  return removed;
}

const void* ThreadPool::current_key() { return tls_current_pool; }

bool ThreadPool::pin_current_thread(int cpu) {
#ifdef __linux__
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

void ThreadPool::worker_loop(unsigned index) {
  if (pin_threads_ && index + 1 < cpus_.size()) {
    pin_current_thread(cpus_[index + 1]);  // best-effort
  }
  CurrentPoolScope scope(this);
  // Build this worker's scratch arena (and its first chunk) before start()
  // returns, so no kernel block — in whichever later run — pays for it.
  parallel::ScratchArena::tls();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++started_;
  }
  cv_.notify_all();
  for (;;) {
    Loop* loop = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_ || count_ > 0 ||
               (group_ != nullptr && group_->pending() > 0);
      });
      if (stop_ && count_ == 0) return;
      if (count_ > 0) loop = dequeue_locked();
    }
    if (loop != nullptr) {
      if (group_ != nullptr) group_->note_dequeued(1);
      loop->run_helper();
      continue;
    }
    // Own queue empty but the group has pending work: steal from a sibling.
    if (group_ != nullptr && group_->steal_and_run(this)) continue;
    std::this_thread::yield();  // lost the race; re-check the predicate
  }
}

bool ThreadPool::run_one() {
  Loop* loop = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ == 0) return false;
    loop = dequeue_locked();
  }
  if (group_ != nullptr) group_->note_dequeued(1);
  loop->run_helper();
  return true;
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              LoopBody fn, std::int64_t grain) {
  APNN_CHECK(grain >= 1) << "grain=" << grain;
  if (begin >= end) return;
  const std::int64_t n = end - begin;
  const std::int64_t nchunks = (n + grain - 1) / grain;
  // Helper budget: own workers plus, when grouped, idle siblings that could
  // steal a queued drain task (a 1-wide slice in a group still fans out).
  const std::int64_t budget =
      static_cast<std::int64_t>(workers_.size()) +
      (group_ != nullptr ? group_->workers_besides(this) : 0);
  const std::int64_t helpers = std::min<std::int64_t>(budget, nchunks - 1);
  if (helpers <= 0) {
    CurrentPoolScope scope(this);
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  Loop loop;
  loop.fn = &fn;
  loop.begin = begin;
  loop.end = end;
  loop.grain = grain;
  loop.nchunks = nchunks;
  loop.outstanding = helpers;

  // One queued task per helper; each drains the shared chunk counter.
  {
    std::lock_guard<std::mutex> lock(mu_);
    enqueue_locked(&loop, static_cast<std::size_t>(helpers));
  }
  cv_.notify_all();
  if (group_ != nullptr) group_->note_enqueued(helpers, this);

  {
    CurrentPoolScope scope(this);
    loop.run_chunks();  // caller participates
  }

  if (help_foreign_) {
    // Help drain any unrelated queued tasks while waiting (avoids idling if
    // parallel_for is nested); park briefly on the completion signal when the
    // queue is empty instead of spinning.
    CurrentPoolScope scope(this);
    while (!loop.all_done()) {
      if (!run_one()) {
        std::unique_lock<std::mutex> lock(loop.mu);
        loop.cv.wait_for(lock, std::chrono::microseconds(200),
                         [&] { return loop.all_done(); });
      }
    }
  } else {
    // Latency-bounded wait: only this loop's chunks can extend the caller's
    // critical path — never an arbitrary foreign task.
    std::unique_lock<std::mutex> lock(loop.mu);
    loop.cv.wait(lock, [&] { return loop.all_done(); });
  }

  // Drop stale helpers: every chunk is done, so helpers still queued are
  // pure no-ops — erase them instead of leaving them for a later dequeue.
  std::size_t removed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    removed = erase_locked(&loop);
  }
  if (removed > 0 && group_ != nullptr) {
    group_->note_dequeued(static_cast<std::int64_t>(removed));
  }
  // Helpers already dequeued (here or by a sibling's thief) hold a pointer
  // to `loop`; wait until each has exited before the frame goes away. Every
  // chunk is done, so they only fail to claim one and sign out.
  {
    std::unique_lock<std::mutex> lock(loop.mu);
    loop.outstanding -= static_cast<std::int64_t>(removed);
    loop.cv.wait(lock, [&] { return loop.outstanding == 0; });
  }

  if (loop.failed.load()) std::rethrow_exception(loop.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::int64_t begin, std::int64_t end, LoopBody fn,
                  std::int64_t grain) {
  ThreadPool::global().parallel_for(begin, end, fn, grain);
}

}  // namespace apnn
