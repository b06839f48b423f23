// TaskPool dispatch: spin-then-park handoff. Back-to-back tiny jobs take
// the spin path (workers still polling when the next job is published), a
// job after an idle gap longer than any spin takes the park path (workers
// blocked on the condition variable), and the scheduling statistics count
// both kinds of wait. Exception and reentrancy behaviour is covered in
// test_trial_faults.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace udwn {
namespace {

// Fake stats clock: every read advances 1 µs, so each timed wait adds
// at least 1000 ns whether it spun or parked.
std::atomic<std::uint64_t> g_fake_ns{0};
std::uint64_t fake_now_ns() {
  return g_fake_ns.fetch_add(1000, std::memory_order_relaxed);
}

/// Runs one job writing `job + i` into out[i]; returns true when every
/// item was written exactly once.
bool run_job(TaskPool& pool, std::vector<std::uint64_t>& out,
             std::uint64_t job) {
  pool.run_chunks(0, out.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out[i] += job + i;
  });
  bool ok = true;
  for (std::size_t i = 0; i < out.size(); ++i) {
    ok = ok && out[i] == job + i;
    out[i] = 0;
  }
  return ok;
}

TEST(TaskPoolDispatch, BackToBackTinyJobs) {
  for (int threads : {2, 4}) {
    TaskPool pool(threads);
    std::vector<std::uint64_t> out(static_cast<std::size_t>(threads) * 3, 0);
    int failed = 0;
    constexpr int kJobs = 10000;
    for (int job = 0; job < kJobs; ++job)
      failed += run_job(pool, out, static_cast<std::uint64_t>(job)) ? 0 : 1;
    EXPECT_EQ(failed, 0) << "threads=" << threads;
    const TaskPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.jobs, static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(stats.chunks, static_cast<std::uint64_t>(kJobs) *
                                static_cast<std::uint64_t>(threads));
  }
}

TEST(TaskPoolDispatch, JobAfterIdleGapWakesParkedWorkers) {
  TaskPool pool(3);
  std::vector<std::uint64_t> out(12, 0);
  for (std::uint64_t job = 1; job <= 3; ++job) {
    // Far longer than the spin bound: the workers have parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(6));
    EXPECT_TRUE(run_job(pool, out, job)) << "job " << job;
  }
  // Chunks with a fixed size, so that the workers must claim some.
  std::atomic<int> items{0};
  std::this_thread::sleep_for(std::chrono::milliseconds(6));
  pool.run_chunks(
      0, 64,
      [&](std::size_t lo, std::size_t hi) {
        items.fetch_add(static_cast<int>(hi - lo), std::memory_order_relaxed);
      },
      /*chunk_size=*/1);
  EXPECT_EQ(items.load(), 64);
  EXPECT_EQ(pool.stats().jobs, 4u);
  EXPECT_EQ(pool.stats().chunks, 3u * 3u + 64u);
}

TEST(TaskPoolDispatch, StatsCountSpinningAndParkedWaits) {
  TaskPool pool(2);
  pool.set_collect_stats(true, &fake_now_ns);
  // Run tiny back-to-back jobs until the worker has taken a chunk: from
  // then on each of its waits starts with the stats clock set.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_ran{false};
  std::uint64_t jobs = 0;
  while (!worker_ran.load()) {
    pool.run_chunks(0, 2, [&](std::size_t, std::size_t) {
      if (std::this_thread::get_id() != caller) worker_ran.store(true);
    });
    ++jobs;
  }
  // Far longer than the spin bound: the worker parks, then the next job
  // wakes it, and the wait, spinning and parked, is added once it has the
  // lock again.
  std::this_thread::sleep_for(std::chrono::milliseconds(6));
  std::vector<std::uint64_t> out(8, 0);
  ASSERT_TRUE(run_job(pool, out, 1));
  ++jobs;
  for (int poll = 0; poll < 2000 && pool.stats().worker_idle_ns == 0; ++poll)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const TaskPool::Stats stats = pool.stats();
  EXPECT_GE(stats.worker_idle_ns, 1000u);
  EXPECT_EQ(stats.jobs, jobs);
  EXPECT_EQ(stats.chunks, 2 * jobs);
}

}  // namespace
}  // namespace udwn
