// Deterministic fork/join parallelism for the slot pipeline.
//
// TaskPool partitions an index range [begin, end) into fixed, arithmetic
// chunks and runs a callback once per chunk on a set of persistent worker
// threads (the calling thread participates too). Determinism contract:
// chunk boundaries depend only on (begin, end, threads), never on timing,
// and callbacks must write disjoint data per chunk — under that contract a
// parallel run is bit-for-bit identical to calling the body serially on
// each chunk in order, because no floating-point accumulation ever crosses
// a chunk boundary. Which worker executes which chunk is scheduling noise
// the results cannot observe.
//
// The dispatch path performs no heap allocation (plain function pointer +
// context, no std::function), so a steady-state engine slot stays
// allocation-free with threads > 1.
//
// Dispatch is spin-then-park. The job handoff itself stays under the mutex,
// but an idle worker first polls an atomic copy of the job generation for a
// bounded number of CPU-relax instructions before it blocks on the condition
// variable, and a joining caller polls an atomic copy of the pending-chunk
// count the same way. A slot runs several short fork/joins back to back
// with serial gaps of tens of microseconds between them; a parked worker
// needs a futex wake-up (~20 µs) for each, a spinning one sees the next job
// at once. The spin never reads a clock (timing stays out of src/common), is
// skipped when the host has fewer hardware threads than the pool, and
// cannot change chunk boundaries or results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/contract.h"

namespace udwn {

class TaskPool {
 public:
  /// `threads` >= 1 is the total worker count including the caller; a pool
  /// with threads == 1 runs everything inline and spawns nothing.
  explicit TaskPool(int threads);
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;
  ~TaskPool();

  [[nodiscard]] int threads() const { return threads_; }

  /// Run `fn(context, lo, hi)` over fixed chunks covering [begin, end) and
  /// block until every chunk finished. With `chunk_size == 0` the range is
  /// split evenly into threads() chunks; a nonzero `chunk_size` fixes the
  /// chunk length instead (the last chunk may be shorter), which lets
  /// callers with uneven per-item cost (e.g. BatchRunner trials) claim work
  /// at finer granularity. Either way chunk boundaries depend only on
  /// (begin, end, threads, chunk_size) — never on timing — so results stay
  /// schedule-independent. Empty ranges return immediately.
  ///
  /// Exceptions: a chunk body may throw. Every remaining chunk still runs
  /// (sibling work completes and the pool stays usable), then run()
  /// rethrows on the calling thread. When several chunks throw, the one
  /// with the lowest chunk index wins — the same exception a serial
  /// in-order execution would surface first — so the escaping error is
  /// schedule-independent too. With threads == 1 the body runs inline and
  /// an exception propagates immediately (plain-loop semantics).
  ///
  /// Not reentrant: calling run() from inside a chunk of the same pool is
  /// a contract violation (UDWN_EXPECT, kept in release) — without the
  /// check the nested join would deadlock silently.
  using ChunkFn = void (*)(void* context, std::size_t lo, std::size_t hi);
  UDWN_HOT void run(std::size_t begin, std::size_t end, ChunkFn fn,
                    void* context, std::size_t chunk_size = 0);

  /// Convenience adapter for stateless-callable lambdas (captures allowed;
  /// the lambda lives on the caller's stack, so no allocation happens).
  template <typename Body>
  void run_chunks(std::size_t begin, std::size_t end, Body&& body,
                  std::size_t chunk_size = 0) {
    using Fn = std::remove_reference_t<Body>;
    run(begin, end,
        [](void* context, std::size_t lo, std::size_t hi) {
          (*static_cast<Fn*>(context))(lo, hi);
        },
        &body, chunk_size);
  }

  /// Lifetime scheduling statistics. Job/chunk counts are always kept (the
  /// increments ride on locks run() takes anyway); the wall-clock fields
  /// need set_collect_stats(true, now_ns) because they time every wait,
  /// spinning and parked alike. The clock is *injected*: src/common sits at
  /// the bottom of the layering DAG and must not include src/obs, so the
  /// observability layer passes its own obs_now_ns when it turns stats on
  /// (see SlotWorkspace). Timing is observability-only — it can never
  /// influence chunk boundaries (see determinism contract).
  struct Stats {
    std::uint64_t jobs = 0;            // run() calls that dispatched work
    std::uint64_t chunks = 0;          // chunks executed across all jobs
    std::uint64_t worker_idle_ns = 0;  // workers waiting for a job
    std::uint64_t caller_wait_ns = 0;  // callers waiting in run()'s join
  };
  using NowNsFn = std::uint64_t (*)();
  void set_collect_stats(bool collect, NowNsFn now_ns = nullptr);
  [[nodiscard]] Stats stats() const;

 private:
  void worker_loop();
  void work_off_chunks();

  int threads_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  // Current job, guarded by mutex_ (workers snapshot under the lock and
  // claim chunks via next_chunk_).
  ChunkFn fn_ = nullptr;
  void* context_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t chunk_size_ = 0;
  std::size_t chunk_count_ = 0;
  std::size_t next_chunk_ = 0;
  std::size_t pending_ = 0;
  // First (lowest-chunk-index) exception thrown by the current job, if any;
  // rethrown by run() after the join so the error surfaced is the one a
  // serial in-order execution would have hit first.
  std::exception_ptr error_;
  std::size_t error_chunk_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  // Copies of generation_ and pending_, stored under mutex_ whenever those
  // change, for the lock-free spin phase of a wait. A waiter that sees the
  // awaited value still takes mutex_ before it reads any job state.
  std::atomic<std::uint64_t> spin_generation_{0};
  std::atomic<std::size_t> spin_pending_{0};
  // CPU-relax iterations a waiter spins before parking; 0 when the host has
  // fewer hardware threads than the pool.
  int spin_limit_ = 0;
  // Stats clock; null unless set_collect_stats(true, ...). Atomic because
  // waiters read it before taking mutex_.
  std::atomic<NowNsFn> now_ns_{nullptr};
  Stats stats_;  // guarded by mutex_ (threads > 1)
};

}  // namespace udwn
