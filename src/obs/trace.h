// Compact binary round-event tracing.
//
// TraceSink collects fixed-size 24-byte records into per-thread ring
// buffers: emit() appends to the calling thread's ring (thread-private
// memory, no locks), and collect() merges the rings post-run. A full ring
// overwrites its oldest records (the trace keeps the most recent events)
// and counts the drops, so a long run degrades to a bounded suffix instead
// of unbounded memory.
//
// Determinism contract: the merged event stream is ordered by
// (round, slot, ring, emission order). The engine emits every event from
// the slot-serial sections of Engine::step (one thread, deterministic
// order), so the stream is bit-identical across thread counts and kernel
// choices — tests/test_obs.cpp and the determinism audit's obs-on
// configuration enforce this. Pool workers may emit too (their ring is
// created on first use), but cross-ring order within one (round, slot) is
// registration order, which is scheduling-dependent — worker-side
// instrumentation should use MetricsRegistry counters instead.
//
// The on-disk format (write_trace_file/read_trace_file) bundles the final
// counter/histogram aggregates with the event stream so the inspector tool
// needs a single file; see docs/OBSERVABILITY.md for the layout.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace udwn {

/// What a trace record describes. Values are part of the on-disk format —
/// append, never renumber.
enum class EventKind : std::uint16_t {
  /// One slot resolved: node = #transmitters, aux = #deliveries,
  /// value = (#collisions-sensed << 32) | #mass-deliveries.
  kSlotEnd = 1,
  /// One node decoded a message: node = receiver, aux = sender,
  /// value = payload tag.
  kDelivery = 2,
  /// A transmitter mass-delivered: node = transmitter, aux = 0, value = 0.
  kMassDelivery = 3,
  /// A protocol's obs_state() changed between rounds: node = the node,
  /// aux = previous state, value = new state.
  kStateTransition = 4,
  /// End of a global round: node = #alive nodes, aux = 0,
  /// value = #state transitions this round.
  kRoundEnd = 5,
  /// One interference-field shard executed on a pool worker
  /// (ObsConfig::worker_spans): node = first listener column of the shard,
  /// aux = #listener blocks, value = wall-clock duration in ns. Emitted
  /// from worker threads — ring order within a (round, slot) is
  /// scheduling-dependent (see the determinism contract above), which is
  /// why the knob is opt-in and the span is a diagnostic, never an input.
  kShardSpan = 6,
  /// A global round's trace hashes, emitted after its kRoundEnd by a
  /// TraceHashRecorder (analysis/determinism.h) on a traced engine:
  /// value = decision hash, node = high and aux = low 32 bits of the full
  /// trace hash, both as they stand after the round.
  kRoundHash = 7,
};

/// One fixed-size trace record. Packed to 24 bytes; written to disk as-is
/// (native endianness — traces are a single-host diagnostic artifact).
struct TraceEvent {
  std::uint32_t round = 0;
  std::uint16_t kind = 0;  // EventKind
  std::uint8_t slot = 0;   // Slot::Data = 0, Slot::Notify = 1
  std::uint8_t ring = 0;   // writer ring index (0 = first registered)
  std::uint32_t node = 0;
  std::uint32_t aux = 0;
  std::uint64_t value = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};
static_assert(sizeof(TraceEvent) == 24, "on-disk record layout");

/// A fully merged trace: final metric aggregates + the event stream.
struct Trace {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<MetricsRegistry::HistogramView> histograms;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

class TraceSink {
  /// Storage of one writer thread. Declared first so Writer below can hold
  /// a pointer; still private — only TraceSink hands these out.
  struct Ring {
    std::vector<TraceEvent> events;  // reserved to capacity on creation
    std::size_t next = 0;            // write cursor once wrapped
    std::uint64_t dropped = 0;
  };

  /// Shared append: fill until capacity, then overwrite-oldest with a
  /// compare-based cursor wrap (a long run lands on the wrap path every
  /// emit, so no division).
  static void append(Ring& r, std::size_t capacity, const TraceEvent& event) {
    if (r.events.size() < capacity) {
      r.events.push_back(event);
      return;
    }
    r.events[r.next] = event;
    if (++r.next == capacity) r.next = 0;
    ++r.dropped;
  }

 public:
  struct Config {
    /// Events retained per writer ring; the storage (capacity * 24 bytes)
    /// is reserved when the ring is created, so steady-state emits never
    /// allocate.
    std::size_t ring_capacity = std::size_t{1} << 16;
  };

  TraceSink() : TraceSink(Config{}) {}
  explicit TraceSink(Config config);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  ~TraceSink();

  /// Hot path: append one record to this thread's ring. `event.ring` is
  /// overwritten with the ring index at collect() time. Inline — the engine
  /// emits one event per delivery, so even a call into another TU shows up
  /// at n = 2048.
  void emit(TraceEvent event) { append(ring(), config_.ring_capacity, event); }

  /// Burst writer: binds the calling thread's ring once, so a run of emits
  /// (e.g. one engine slot's deliveries) skips the per-emit thread_local
  /// lookup. Default-constructed it is inert — emit() is a no-op — which
  /// lets callers hoist the events-enabled decision out of hot loops.
  /// Single-thread use; do not outlive the sink or the emitting burst.
  class Writer {
   public:
    Writer() = default;
    void emit(const TraceEvent& event) {
      if (ring_ != nullptr) append(*ring_, capacity_, event);
    }

   private:
    friend class TraceSink;
    Writer(Ring* ring, std::size_t capacity)
        : ring_(ring), capacity_(capacity) {}
    Ring* ring_ = nullptr;
    std::size_t capacity_ = 0;
  };

  /// A Writer bound to the calling thread's ring.
  [[nodiscard]] Writer writer() {
    return Writer(&ring(), config_.ring_capacity);
  }

  /// Merge all rings into (round, slot, ring, emission-order) order.
  /// Quiescent points only (same rule as MetricsRegistry aggregation).
  [[nodiscard]] std::vector<TraceEvent> collect() const;

  /// Records overwritten across all rings.
  [[nodiscard]] std::uint64_t dropped() const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t ring_count() const;

 private:
  /// This thread's ring via a thread_local cache keyed by the sink id —
  /// same scheme as MetricsRegistry::shard().
  Ring& ring() {
    struct Cache {
      std::uint64_t sink_id = 0;
      Ring* ring = nullptr;
    };
    thread_local Cache cache;
    if (cache.sink_id != sink_id_) {
      cache.ring = &acquire_ring();
      cache.sink_id = sink_id_;
    }
    return *cache.ring;
  }

  Ring& acquire_ring();

  const std::uint64_t sink_id_;
  Config config_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// Write a merged trace as the UDWNTRC1 binary format. Returns false on I/O
/// failure.
bool write_trace_file(const std::string& path, const Trace& trace);

/// Read a UDWNTRC1 file back; nullopt on I/O or format errors.
std::optional<Trace> read_trace_file(const std::string& path);

}  // namespace udwn
