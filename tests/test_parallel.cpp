#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "src/common/check.hpp"
#include "src/parallel/thread_pool.hpp"

namespace apnn {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RespectsRange) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(10, 20, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, GrainBatchesWork) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(256);
  pool.parallel_for(0, 256, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; }, 32);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::int64_t i) {
                          if (i == 42) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, SingleThreadedFallback) {
  ThreadPool pool(1);
  std::int64_t sum = 0;  // safe: no workers, caller runs everything
  pool.parallel_for(0, 100, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 50, [&](std::int64_t) { ++count; });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<std::int64_t> sum{0};
  parallel_for(0, 64, [&](std::int64_t i) { sum += i * i; });
  std::int64_t expect = 0;
  for (int i = 0; i < 64; ++i) expect += i * i;
  EXPECT_EQ(sum.load(), expect);
}

// --- pool slices (per-replica topology) -------------------------------------

// Two independent pools must own disjoint worker threads: a slice never
// executes on a sibling slice's cores unless a WorkStealGroup says so.
TEST(ThreadPoolSlices, WorkerSetsAreDisjoint) {
  ThreadPool a(3), b(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> ids_a, ids_b;
  // Enough slow chunks that every worker of the owning pool executes some.
  auto collect = [&](ThreadPool& pool, std::set<std::thread::id>& ids) {
    pool.parallel_for(0, 64, [&](std::int64_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  };
  collect(a, ids_a);
  collect(b, ids_b);
  for (const std::thread::id& id : ids_a) {
    if (id == caller) continue;  // the caller participates in both loops
    EXPECT_EQ(ids_b.count(id), 0u) << "worker thread executed on both pools";
  }
}

// Loops on distinct slices running concurrently (one per client thread) each
// see exactly their own indices — the serving pattern of N replicas running
// batches at once, minus the sessions.
TEST(ThreadPoolSlices, ConcurrentLoopsOnDistinctSlicesAreIndependent) {
  ThreadPool a(2), b(2);
  std::atomic<std::int64_t> sum_a{0}, sum_b{0};
  std::thread ta([&] {
    for (int round = 0; round < 20; ++round) {
      a.parallel_for(0, 100, [&](std::int64_t i) { sum_a += i; });
    }
  });
  std::thread tb([&] {
    for (int round = 0; round < 20; ++round) {
      b.parallel_for(0, 100, [&](std::int64_t i) { sum_b += i; });
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(sum_a.load(), 20 * 4950);
  EXPECT_EQ(sum_b.load(), 20 * 4950);
}

// current_key() names the pool whose loop the thread is executing, through
// nesting across slices and back — ScratchArena::tls() keys arenas on it.
TEST(ThreadPoolSlices, CurrentKeyTracksExecutingPool) {
  EXPECT_EQ(ThreadPool::current_key(), nullptr);
  ThreadPool a(2), b(2);
  std::atomic<int> bad{0};
  a.parallel_for(0, 8, [&](std::int64_t) {
    if (ThreadPool::current_key() != static_cast<const void*>(&a)) ++bad;
    b.parallel_for(0, 4, [&](std::int64_t) {
      if (ThreadPool::current_key() != static_cast<const void*>(&b)) ++bad;
    });
    if (ThreadPool::current_key() != static_cast<const void*>(&a)) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(ThreadPool::current_key(), nullptr);
}

// A latency-bounded slice (help_foreign = false, the replica configuration)
// still runs loops, nested loops included, to completion.
TEST(ThreadPoolSlices, BoundedWaitSliceRunsNestedLoops) {
  ThreadPoolOptions o;
  o.num_threads = 3;
  o.help_foreign = false;
  ThreadPool pool(o);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(0, 16, [&](std::int64_t i) {
    std::atomic<std::int64_t> inner{0};
    pool.parallel_for(0, 8, [&](std::int64_t j) { inner += j; });
    EXPECT_EQ(inner.load(), 28);
    sum += i;
  });
  EXPECT_EQ(sum.load(), 120);
}

// Pinning is best-effort and must never change results. cpus = {0, 0} keeps
// the test valid on a 1-core container.
TEST(ThreadPoolSlices, PinnedPoolComputesCorrectly) {
  ThreadPoolOptions o;
  o.num_threads = 2;
  o.pin_threads = true;
  o.cpus = {0, 0};
  ThreadPool pool(o);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(0, 256, [&](std::int64_t i) { sum += i; }, 16);
  EXPECT_EQ(sum.load(), 255 * 256 / 2);
#ifdef __linux__
  EXPECT_TRUE(ThreadPool::pin_current_thread(0));
#endif
  EXPECT_FALSE(ThreadPool::pin_current_thread(-1));
}

// --- work stealing between slices -------------------------------------------

TEST(WorkStealGroup, TracksMembership) {
  WorkStealGroup group;
  EXPECT_EQ(group.pools(), 0);
  ThreadPoolOptions o;
  o.num_threads = 2;
  o.steal_group = &group;
  {
    ThreadPool a(o);
    EXPECT_EQ(group.pools(), 1);
    {
      ThreadPool b(o);
      EXPECT_EQ(group.pools(), 2);
    }
    EXPECT_EQ(group.pools(), 1);
  }
  EXPECT_EQ(group.pools(), 0);
  EXPECT_EQ(group.steals(), 0);
}

// Synthetic imbalance: slice A runs a long loop while slice B sits idle in
// the same group. B's worker must steal A's queued helper task and absorb
// chunks; the loop's results stay exact (every index exactly once).
TEST(WorkStealGroup, IdleSiblingStealsUnderImbalance) {
  WorkStealGroup group;
  ThreadPoolOptions o;
  o.num_threads = 2;  // 1 worker each
  o.help_foreign = false;  // the caller never dequeues its own helpers
  o.steal_group = &group;
  ThreadPool a(o), b(o);
  // Retry: stealing is a race the idle sibling should win within a ~60 ms
  // loop, but nothing forces it on a loaded host — keep trying briefly.
  for (int round = 0; round < 20 && group.steals() == 0; ++round) {
    std::vector<std::atomic<int>> hits(32);
    a.parallel_for(0, 32, [&](std::int64_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      hits[static_cast<std::size_t>(i)]++;
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
    EXPECT_EQ(a.queued_tasks(), 0u);
    EXPECT_EQ(b.queued_tasks(), 0u);
  }
  EXPECT_GT(group.steals(), 0)
      << "idle sibling never stole from the loaded slice";
}

// A grouped 1-wide slice (slice_threads = 1: the dispatcher is the whole
// slice) still fans out — its helper budget comes from sibling workers.
TEST(WorkStealGroup, OneWideSliceFansOutViaSiblings) {
  WorkStealGroup group;
  ThreadPoolOptions narrow;
  narrow.num_threads = 1;
  narrow.help_foreign = false;
  narrow.steal_group = &group;
  ThreadPoolOptions wide = narrow;
  wide.num_threads = 3;
  ThreadPool a(narrow), helpers(wide);
  for (int round = 0; round < 20 && group.steals() == 0; ++round) {
    std::vector<std::atomic<int>> hits(24);
    a.parallel_for(0, 24, [&](std::int64_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      hits[static_cast<std::size_t>(i)]++;
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
  EXPECT_GT(group.steals(), 0);
}

// --- stale-helper / dangling-capture regression ------------------------------

// The queued helper tasks used to capture the parallel_for frame (&fn) by
// reference: a helper dequeued after the loop returned dereferenced a dead
// stack frame. A queued helper still points at loop state in the caller's
// frame, but the caller now outlives every helper it queued: on return it
// erases its own stale helpers and waits for any already dequeued to exit —
// pin that the queue is empty afterwards and the pool stays healthy.
TEST(ThreadPool, StaleHelpersAreErasedNotDangled) {
  ThreadPool pool(2);  // one worker
  std::atomic<bool> gate{false};
  std::atomic<int> blockers{0};
  // Occupy the worker (and the helper thread's caller slot) with a loop
  // whose chunks spin on `gate`.
  std::thread blocked([&] {
    pool.parallel_for(0, 2, [&](std::int64_t) {
      ++blockers;
      while (!gate.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  });
  // Both chunks claimed (caller + worker) before proceeding: otherwise the
  // fast loop's caller could absorb a blocked chunk via its help loop and
  // spin on the gate this thread is supposed to open.
  while (blockers.load() < 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // With the worker busy, this loop's caller drains every chunk itself;
  // its queued helper task must be gone by the time parallel_for returns —
  // erased (stale) or absorbed, never left to fire against a dead frame.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::int64_t) { ++count; });
    ASSERT_EQ(count.load(), 64);
  }
  EXPECT_EQ(pool.queued_tasks(), 0u);
  gate = true;
  blocked.join();
  // The worker must come back healthy after the blocked loop drains.
  std::atomic<int> after{0};
  pool.parallel_for(0, 128, [&](std::int64_t) { ++after; });
  EXPECT_EQ(after.load(), 128);
  EXPECT_EQ(pool.queued_tasks(), 0u);
}

}  // namespace
}  // namespace apnn
