#include "common/parallel.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/contract.h"

namespace udwn {
namespace {

// CPU-relax iterations a waiter spins before it parks. At ~26 ns per
// iteration (pause latency of a Xeon with AVX-512, measured) this is
// ~105 µs: longer than the serial gaps between one engine round's
// dispatches, so back-to-back jobs never pay a futex wake-up. Cores with a
// shorter pause spin for less wall time, which costs latency, never
// correctness.
constexpr int kSpinIterations = 4096;

// One CPU-relax instruction: marks a spin-wait loop to the core (it saves
// power and yields pipeline resources to a sibling hyperthread).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Polls `ready` up to `limit` times with a CPU relax between polls.
template <typename Ready>
void spin_until(int limit, Ready ready) {
  for (int i = 0; i < limit && !ready(); ++i) cpu_relax();
}

// Pool this thread is currently executing a chunk for. Lets run() fail fast
// on reentrant use of the *same* pool while still allowing a chunk body to
// drive a different pool (the marker is saved/restored around each job).
thread_local const TaskPool* t_executing_pool = nullptr;

class ScopedExecutingPool {
 public:
  explicit ScopedExecutingPool(const TaskPool* pool)
      : prev_(t_executing_pool) {
    t_executing_pool = pool;
  }
  ~ScopedExecutingPool() { t_executing_pool = prev_; }
  ScopedExecutingPool(const ScopedExecutingPool&) = delete;
  ScopedExecutingPool& operator=(const ScopedExecutingPool&) = delete;

 private:
  const TaskPool* prev_;
};

}  // namespace

TaskPool::TaskPool(int threads) : threads_(threads) {
  UDWN_EXPECT(threads >= 1);
  // Spinning on an oversubscribed host would steal the very core the
  // awaited thread needs (hardware_concurrency() == 0 means unknown).
  const unsigned hardware = std::thread::hardware_concurrency();
  spin_limit_ = hardware != 0 && hardware < static_cast<unsigned>(threads)
                    ? 0
                    : kSpinIterations;
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void TaskPool::run(std::size_t begin, std::size_t end, ChunkFn fn,
                   void* context, std::size_t chunk_size) {
  UDWN_EXPECT(fn != nullptr);
  UDWN_EXPECT(begin <= end);
  UDWN_EXPECT(t_executing_pool != this &&
              "TaskPool::run is not reentrant: called from inside a chunk "
              "of the same pool (the nested join would deadlock)");
  const std::size_t total = end - begin;
  if (total == 0) return;
  if (threads_ == 1) {
    // No workers exist, so the counters are caller-thread-private here.
    ++stats_.jobs;
    ++stats_.chunks;
    ScopedExecutingPool guard(this);
    fn(context, begin, end);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = fn;
    context_ = context;
    begin_ = begin;
    end_ = end;
    // Fixed arithmetic partition: chunk i covers
    // [begin + i*chunk_size, min(begin + (i+1)*chunk_size, end)).
    // chunk_size == 0 splits evenly across threads; a caller-fixed size
    // yields more, smaller chunks that idle workers claim dynamically.
    if (chunk_size == 0) {
      chunk_count_ = std::min<std::size_t>(
          static_cast<std::size_t>(threads_), total);
      chunk_size_ = (total + chunk_count_ - 1) / chunk_count_;
    } else {
      chunk_size_ = chunk_size;
      chunk_count_ = (total + chunk_size - 1) / chunk_size;
    }
    next_chunk_ = 0;
    pending_ = chunk_count_;
    spin_pending_.store(pending_, std::memory_order_relaxed);
    error_ = nullptr;
    error_chunk_ = chunk_count_;
    ++generation_;
    spin_generation_.store(generation_, std::memory_order_release);
    ++stats_.jobs;
    stats_.chunks += chunk_count_;
  }
  wake_.notify_all();

  work_off_chunks();

  // Join: spin on the atomic copy of pending_, then park on done_ if the
  // last chunks are still running. Stats time both phases.
  const NowNsFn now_ns = now_ns_.load(std::memory_order_relaxed);
  const bool timed =
      now_ns != nullptr &&
      spin_pending_.load(std::memory_order_acquire) != 0;
  const std::uint64_t t0 = timed ? now_ns() : 0;
  spin_until(spin_limit_, [this] {
    return spin_pending_.load(std::memory_order_acquire) == 0;
  });
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return pending_ == 0; });
  if (timed) stats_.caller_wait_ns += now_ns() - t0;
  fn_ = nullptr;
  context_ = nullptr;
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void TaskPool::work_off_chunks() {
  ScopedExecutingPool guard(this);
  for (;;) {
    ChunkFn fn = nullptr;
    void* context = nullptr;
    std::size_t chunk = 0;
    std::size_t lo = 0;
    std::size_t hi = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (next_chunk_ >= chunk_count_) return;
      chunk = next_chunk_++;
      fn = fn_;
      context = context_;
      lo = begin_ + chunk * chunk_size_;
      hi = std::min(end_, lo + chunk_size_);
    }
    std::exception_ptr thrown;
    try {
      fn(context, lo, hi);
    } catch (...) {
      thrown = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (thrown != nullptr && chunk < error_chunk_) {
        error_ = thrown;
        error_chunk_ = chunk;
      }
      spin_pending_.store(--pending_, std::memory_order_release);
      if (pending_ == 0) done_.notify_all();
    }
  }
}

void TaskPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    // Idle: spin on the atomic copy of generation_, then park on wake_.
    // Stats time both phases.
    const NowNsFn now_ns = now_ns_.load(std::memory_order_relaxed);
    const std::uint64_t t0 = now_ns != nullptr ? now_ns() : 0;
    spin_until(spin_limit_, [&] {
      return spin_generation_.load(std::memory_order_acquire) !=
             seen_generation;
    });
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      if (now_ns != nullptr) stats_.worker_idle_ns += now_ns() - t0;
      seen_generation = generation_;
    }
    work_off_chunks();
  }
}

void TaskPool::set_collect_stats(bool collect, NowNsFn now_ns) {
  now_ns_.store(collect ? now_ns : nullptr, std::memory_order_relaxed);
}

TaskPool::Stats TaskPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace udwn
