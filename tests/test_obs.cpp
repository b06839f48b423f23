// Observability subsystem tests: MetricsRegistry semantics, TraceSink ring
// behavior and merge ordering, UDWNTRC1 binary round-trip, exporter parity,
// engine integration, and the trace determinism contract (identical event
// streams across thread counts and kernel choices).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "sim/engine.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

// ---- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, RegisterOnceSameName) {
  MetricsRegistry reg;
  const MetricId a = reg.counter("engine.slots");
  const MetricId b = reg.counter("engine.rounds");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, reg.counter("engine.slots"));  // same name -> same id
  EXPECT_EQ(reg.counter_count(), 2u);

  const MetricId h = reg.histogram("engine.contention");
  EXPECT_EQ(h, reg.histogram("engine.contention"));
  EXPECT_EQ(reg.histogram_count(), 1u);
}

TEST(MetricsRegistry, CountersAggregateAcrossThreads) {
  MetricsRegistry reg;
  const MetricId id = reg.counter("work");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAddsPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) reg.add(id, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.total(id), kThreads * kAddsPerThread);
  // Registration alone creates no shard; each writer thread owns one.
  EXPECT_EQ(reg.shard_count(), static_cast<std::size_t>(kThreads));
}

TEST(MetricsRegistry, HistogramBucketsFollowBitWidth) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("h");
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1024ull})
    reg.record(h, v);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& view = snap.histograms[0];
  EXPECT_EQ(view.name, "h");
  EXPECT_EQ(view.count, 6u);
  EXPECT_EQ(view.sum, 1034u);
  EXPECT_EQ(view.buckets[0], 1u);   // value 0
  EXPECT_EQ(view.buckets[1], 1u);   // value 1
  EXPECT_EQ(view.buckets[2], 2u);   // values 2, 3
  EXPECT_EQ(view.buckets[3], 1u);   // value 4
  EXPECT_EQ(view.buckets[11], 1u);  // value 1024
}

TEST(MetricsRegistry, SnapshotPreservesRegistrationOrder) {
  MetricsRegistry reg;
  const MetricId a = reg.counter("zeta");
  const MetricId b = reg.counter("alpha");
  reg.add(a, 5);
  reg.add(b, 7);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0], (std::pair<std::string, std::uint64_t>{"zeta", 5}));
  EXPECT_EQ(snap.counters[1],
            (std::pair<std::string, std::uint64_t>{"alpha", 7}));
}

TEST(MetricsRegistry, OverflowingTheNameTableReturnsInvalid) {
  MetricsRegistry reg;
  for (std::size_t i = 0; i < MetricsRegistry::kMaxCounters; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    ASSERT_NE(reg.counter(name), kInvalidMetric);
  }
  EXPECT_EQ(reg.counter("one-too-many"), kInvalidMetric);
  reg.add(kInvalidMetric, 1);  // must be a safe no-op
  EXPECT_EQ(reg.counter_count(), MetricsRegistry::kMaxCounters);
}

TEST(MetricsRegistry, ThreadLocalCacheRebindsAcrossRegistries) {
  // The shard cache is keyed by a process-unique registry id, so two
  // registries used back-to-back on one thread must not share storage.
  MetricsRegistry first;
  const MetricId a = first.counter("x");
  first.add(a, 3);

  MetricsRegistry second;
  const MetricId b = second.counter("x");
  second.add(b, 4);

  EXPECT_EQ(first.total(a), 3u);
  EXPECT_EQ(second.total(b), 4u);
}

// ---- TraceSink --------------------------------------------------------------

TraceEvent make_event(std::uint32_t round, std::uint8_t slot,
                      std::uint32_t node) {
  TraceEvent e;
  e.round = round;
  e.kind = static_cast<std::uint16_t>(EventKind::kSlotEnd);
  e.slot = slot;
  e.node = node;
  return e;
}

TEST(TraceSink, CollectSortsByRoundThenSlot) {
  TraceSink sink;
  sink.emit(make_event(2, 0, 10));
  sink.emit(make_event(0, 0, 11));
  sink.emit(make_event(1, 1, 12));
  sink.emit(make_event(1, 0, 13));

  const auto events = sink.collect();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].node, 11u);  // round 0
  EXPECT_EQ(events[1].node, 13u);  // round 1, slot 0
  EXPECT_EQ(events[2].node, 12u);  // round 1, slot 1
  EXPECT_EQ(events[3].node, 10u);  // round 2
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.ring_count(), 1u);
}

TEST(TraceSink, EmissionOrderIsStableWithinOneSlot) {
  TraceSink sink;
  for (std::uint32_t i = 0; i < 8; ++i) sink.emit(make_event(5, 0, i));
  const auto events = sink.collect();
  ASSERT_EQ(events.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(events[i].node, i);
}

TEST(TraceSink, FullRingKeepsNewestAndCountsDrops) {
  TraceSink sink(TraceSink::Config{.ring_capacity = 4});
  for (std::uint32_t i = 0; i < 6; ++i) sink.emit(make_event(i, 0, i));

  EXPECT_EQ(sink.dropped(), 2u);
  const auto events = sink.collect();
  ASSERT_EQ(events.size(), 4u);
  // The two oldest records (rounds 0, 1) were overwritten.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(events[i].round, static_cast<std::uint32_t>(i + 2));
}

// ---- File formats -----------------------------------------------------------

Trace sample_trace() {
  Trace trace;
  trace.counters = {{"engine.slots", 120}, {"engine.deliveries", 37}};
  MetricsRegistry::HistogramView h;
  h.name = "engine.contention_per_slot";
  h.count = 5;
  h.sum = 22;
  h.buckets[1] = 2;
  h.buckets[3] = 3;
  trace.histograms.push_back(h);
  for (std::uint32_t r = 0; r < 6; ++r) {
    TraceEvent e = make_event(r, static_cast<std::uint8_t>(r % 2), r * 7);
    e.kind = static_cast<std::uint16_t>(r % 2 ? EventKind::kDelivery
                                              : EventKind::kSlotEnd);
    e.aux = r + 100;
    e.value = (std::uint64_t{r} << 32) | 5u;
    trace.events.push_back(e);
  }
  trace.dropped = 9;
  return trace;
}

void expect_traces_equal(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i].name, b.histograms[i].name);
    EXPECT_EQ(a.histograms[i].count, b.histograms[i].count);
    EXPECT_EQ(a.histograms[i].sum, b.histograms[i].sum);
    EXPECT_EQ(a.histograms[i].buckets, b.histograms[i].buckets);
  }
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.dropped, b.dropped);
}

TEST(TraceFile, BinaryRoundTrip) {
  const Trace trace = sample_trace();
  const std::string path = ::testing::TempDir() + "udwn_obs_roundtrip.trace";
  ASSERT_TRUE(write_trace_file(path, trace));
  const auto back = read_trace_file(path);
  ASSERT_TRUE(back.has_value());
  expect_traces_equal(trace, *back);
}

TEST(TraceFile, RejectsGarbageInput) {
  const std::string path = ::testing::TempDir() + "udwn_obs_garbage.trace";
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a UDWNTRC1 file at all";
  }
  EXPECT_FALSE(read_trace_file(path).has_value());
  EXPECT_FALSE(read_trace_file(path + ".does-not-exist").has_value());
}

TEST(TraceExport, JsonlRoundTrip) {
  const Trace trace = sample_trace();
  const std::string path = ::testing::TempDir() + "udwn_obs_roundtrip.jsonl";
  ASSERT_TRUE(export_jsonl(path, trace));
  const auto back = import_jsonl(path);
  ASSERT_TRUE(back.has_value());
  expect_traces_equal(trace, *back);
}

// Counter and histogram names come from user-registered metrics and may
// carry any byte: every control character, quotes, and backslashes must
// survive export_jsonl -> import_jsonl exactly (the \uXXXX escapes the
// exporter emits for control characters have to decode on the way back).
TEST(TraceExport, JsonlRoundTripPreservesControlCharacterNames) {
  Trace trace;
  std::string all_controls = "ctl:";
  for (char c = 0x01; c < 0x20; ++c) all_controls += c;
  const std::vector<std::string> names{
      "newline\nname", "tab\tname",     "cr\rname",
      "bell\x07name",  "esc\x1bname",   "quote\"back\\slash",
      "slash/name",    all_controls,
  };
  std::uint64_t value = 1;
  for (const std::string& name : names)
    trace.counters.emplace_back(name, value++);
  MetricsRegistry::HistogramView h;
  h.name = "hist\r\nwith\x01controls";
  h.count = 3;
  h.sum = 12;
  h.buckets[2] = 3;
  trace.histograms.push_back(h);

  const std::string path =
      ::testing::TempDir() + "udwn_obs_control_chars.jsonl";
  ASSERT_TRUE(export_jsonl(path, trace));
  const auto back = import_jsonl(path);
  ASSERT_TRUE(back.has_value());
  expect_traces_equal(trace, *back);
}

TEST(TraceExport, ImportRejectsMalformedUnicodeEscape) {
  const std::string path = ::testing::TempDir() + "udwn_obs_bad_escape.jsonl";
  {
    std::ofstream os(path);
    os << "{\"type\":\"meta\",\"format\":\"udwn-trace\",\"version\":1,"
          "\"events\":0,\"dropped\":0}\n"
          "{\"type\":\"counter\",\"name\":\"bad\\u00zzname\",\"value\":1}\n";
  }
  EXPECT_FALSE(import_jsonl(path).has_value());
}

// ---- Strict JSONL import ----------------------------------------------------
// Each line is parsed by the shared JSON codec (common/json.h) and must carry
// every key the exporter writes, with integers in their field's range: a
// damaged line fails the import instead of importing zeros or wrapped values.

/// Writes `lines` after a meta line declaring `events` events; returns the
/// file's path.
std::string write_jsonl(const std::string& name, std::uint64_t events,
                        const std::string& lines) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream os(path);
  os << "{\"type\":\"meta\",\"format\":\"udwn-trace\",\"version\":1,"
        "\"events\":"
     << events << ",\"dropped\":0}\n"
     << lines;
  return path;
}

TEST(TraceImport, RejectsNegativeCounterValue) {
  EXPECT_FALSE(import_jsonl(write_jsonl(
                   "udwn_obs_negative.jsonl", 0,
                   "{\"type\":\"counter\",\"name\":\"c\",\"value\":-1}\n"))
                   .has_value());
}

TEST(TraceImport, RejectsEventTruncatedMidLine) {
  EXPECT_FALSE(import_jsonl(write_jsonl("udwn_obs_cut_event.jsonl", 1,
                                        "{\"type\":\"event\",\"kind\":"
                                        "\"delivery\",\"round\":3,\"slot\":0"))
                   .has_value());
}

TEST(TraceImport, RejectsTrailingGarbage) {
  EXPECT_FALSE(
      import_jsonl(
          write_jsonl("udwn_obs_trailing.jsonl", 0,
                      "{\"type\":\"counter\",\"name\":\"c\",\"value\":1}x\n"))
          .has_value());
}

TEST(TraceImport, RejectsRoundBeyondUint32) {
  const std::string event =
      ",\"slot\":0,\"ring\":0,\"node\":1,\"aux\":2,\"value\":3}\n";
  const std::string fits = "{\"type\":\"event\",\"kind\":\"delivery\","
                           "\"round\":4294967295" + event;
  const auto back = import_jsonl(write_jsonl("udwn_obs_round_max.jsonl", 1,
                                             fits));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->events.at(0).round, 4294967295u);
  const std::string wraps = "{\"type\":\"event\",\"kind\":\"delivery\","
                            "\"round\":4294967303" + event;
  EXPECT_FALSE(import_jsonl(write_jsonl("udwn_obs_round_wrap.jsonl", 1,
                                        wraps))
                   .has_value());
}

TEST(TraceImport, RejectsMoreHistogramBucketsThanTheRegistryHas) {
  std::string buckets = "0";
  for (std::size_t b = 1; b <= MetricsRegistry::kBuckets; ++b)
    buckets += ",1";
  EXPECT_FALSE(import_jsonl(write_jsonl("udwn_obs_buckets.jsonl", 0,
                                        "{\"type\":\"histogram\",\"name\":"
                                        "\"h\",\"count\":0,\"sum\":0,"
                                        "\"buckets\":[" + buckets + "]}\n"))
                   .has_value());
}

// A JSONL export cut anywhere inside a line never imports: every prefix that
// does not end on a line boundary leaves a partial last line.
TEST(TraceImport, RejectsEveryMidLineTruncationOfAnExport) {
  const std::string path = ::testing::TempDir() + "udwn_obs_full.jsonl";
  ASSERT_TRUE(export_jsonl(path, sample_trace()));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(text.empty());
  const std::string cut_path = ::testing::TempDir() + "udwn_obs_cut.jsonl";
  int cuts = 0;
  for (std::size_t k = 1; k < text.size(); ++k) {
    if (text[k] == '\n' || text[k - 1] == '\n') continue;
    {
      std::ofstream os(cut_path);
      os << text.substr(0, k);
    }
    EXPECT_FALSE(import_jsonl(cut_path).has_value()) << "cut at byte " << k;
    ++cuts;
  }
  EXPECT_GT(cuts, 500);
}

TEST(TraceExport, ChromeEventCountMatches) {
  const Trace trace = sample_trace();
  const std::string path = ::testing::TempDir() + "udwn_obs.chrome.json";
  ASSERT_TRUE(export_chrome(path, trace));
  const auto count = count_chrome_events(path);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, trace.events.size());
}

TEST(TraceExport, EventKindNames) {
  EXPECT_EQ(event_kind_name(
                static_cast<std::uint16_t>(EventKind::kSlotEnd)),
            "slot_end");
  EXPECT_EQ(event_kind_name(
                static_cast<std::uint16_t>(EventKind::kStateTransition)),
            "state_transition");
  EXPECT_EQ(event_kind_name(999), "kind_999");
}

// ---- Engine integration -----------------------------------------------------

/// Fixed transmit probability with a round-phased obs_state: the reported
/// state advances every 10 rounds (20 slots at slots_per_round = 2), so a
/// 25-round run produces exactly two state transitions per alive node.
/// Isolated, so runs with threads > 1 shard the per-node sweeps.
class PhasedProtocol final : public Protocol {
 public:
  double transmit_probability(Slot) override { return 0.25; }
  void on_slot(const SlotFeedback&) override { ++slots_; }
  [[nodiscard]] bool isolated() const override { return true; }
  [[nodiscard]] std::uint32_t obs_state() const override {
    return slots_ / 20;
  }

 private:
  std::uint32_t slots_ = 0;
};

constexpr int kRounds = 25;
constexpr std::size_t kNodes = 56;

std::unique_ptr<Obs> run_observed(EngineConfig config,
                                  Recorder* recorder = nullptr) {
  Scenario scenario(test::random_points(kNodes, 5.5, 8103),
                    test::default_config());
  auto protocols = make_protocols(scenario.network().size(), [](NodeId) {
    return std::make_unique<PhasedProtocol>();
  });
  const CarrierSensing sensing = scenario.sensing_local();
  auto obs = std::make_unique<Obs>(ObsConfig{.state_transitions = true});
  config.slots_per_round = 2;
  config.obs = obs.get();
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                config);
  engine.set_recorder(recorder);
  for (int r = 0; r < kRounds; ++r) engine.step();
  return obs;
}

TEST(EngineObs, CountersAndEventsAgree) {
  const auto obs = run_observed(EngineConfig{.seed = 3});
  const EngineCounterIds& ids = obs->ids();
  const MetricsRegistry& reg = obs->metrics();

  EXPECT_EQ(reg.total(ids.rounds), static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(reg.total(ids.slots), static_cast<std::uint64_t>(2 * kRounds));
  EXPECT_GT(reg.total(ids.transmissions), 0u);
  EXPECT_GT(reg.total(ids.deliveries), 0u);
  // Every node advances its phase twice over 25 rounds.
  EXPECT_EQ(reg.total(ids.state_transitions), 2 * kNodes);

  const Trace trace = obs->snapshot();
  EXPECT_EQ(trace.dropped, 0u);
  std::uint64_t slot_ends = 0, round_ends = 0, deliveries = 0,
                transitions = 0, transmissions = 0;
  for (const TraceEvent& e : trace.events) {
    switch (static_cast<EventKind>(e.kind)) {
      case EventKind::kSlotEnd:
        ++slot_ends;
        transmissions += e.node;
        break;
      case EventKind::kRoundEnd: ++round_ends; break;
      case EventKind::kDelivery: ++deliveries; break;
      case EventKind::kStateTransition: ++transitions; break;
      default: break;
    }
  }
  // The event stream reconstructs the counters exactly: that is what the
  // udwn_trace inspector relies on.
  EXPECT_EQ(slot_ends, reg.total(ids.slots));
  EXPECT_EQ(round_ends, reg.total(ids.rounds));
  EXPECT_EQ(deliveries, reg.total(ids.deliveries));
  EXPECT_EQ(transitions, reg.total(ids.state_transitions));
  EXPECT_EQ(transmissions, reg.total(ids.transmissions));

  // Data-slot histograms: one contention sample per data slot.
  const auto snap = reg.snapshot();
  bool found = false;
  for (const auto& h : snap.histograms) {
    if (h.name != "engine.contention_per_slot") continue;
    found = true;
    EXPECT_EQ(h.count, static_cast<std::uint64_t>(kRounds));
  }
  EXPECT_TRUE(found);
}

TEST(EngineObs, MetricsOnlyModeEmitsNoEvents) {
  Scenario scenario(test::random_points(32, 5.0, 8103),
                    test::default_config());
  auto protocols = make_protocols(scenario.network().size(), [](NodeId) {
    return std::make_unique<PhasedProtocol>();
  });
  const CarrierSensing sensing = scenario.sensing_local();
  Obs obs(ObsConfig{.events = false});
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.seed = 5, .obs = &obs});
  for (int r = 0; r < 10; ++r) engine.step();

  EXPECT_GT(obs.metrics().total(obs.ids().slots), 0u);
  EXPECT_TRUE(obs.snapshot().events.empty());
}

// The determinism contract for traces: every event is emitted from the
// slot-serial sections of Engine::step, so thread counts and kernel choices
// must not change a single byte of the merged stream. At threads > 1 the
// per-node sweeps are sharded: delivery events come from the engine
// thread's serial pass, and state transitions from its round-end poll. The serial reference
// run is checked slot by slot against Channel::resolve(), so the stream
// every other run must reproduce is the exact one.
TEST(EngineObs, EventStreamIsIdenticalAcrossThreadsAndKernels) {
  ReferenceCheck check;
  const std::vector<TraceEvent> reference =
      run_observed(EngineConfig{.seed = 3}, &check)->snapshot().events;
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(check.passed()) << to_string(check);
  EXPECT_EQ(check.slots_checked(), static_cast<std::uint64_t>(2 * kRounds));

  // The sharded field: 4 threads at kNodes = 56 make 16-column tiles,
  // 4 blocks >= 4 threads.
  EXPECT_EQ(reference,
            run_observed(EngineConfig{.seed = 3, .threads = 4})
                ->snapshot().events);
}

// Worker-side shard spans are opt-in (their cross-ring merge order is
// scheduling-dependent, unlike every default event) and must carry the
// engine's (round, slot) tags plus the shard geometry.
TEST(EngineObs, WorkerShardSpansAreOptInAndTagged) {
  auto shard_spans = [](bool enabled) {
    Scenario scenario(test::random_points(kNodes, 5.5, 8104),
                      test::default_config());
    auto protocols = make_protocols(scenario.network().size(), [](NodeId) {
      return std::make_unique<PhasedProtocol>();
    });
    const CarrierSensing sensing = scenario.sensing_local();
    Obs obs(ObsConfig{.worker_spans = enabled});
    // 3 threads at n = 56 make 16-column tiles, 4 blocks >= 3 threads, so
    // the gain-table field driver (the only shard-span emitter) shards
    // every slot.
    Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                  EngineConfig{.slots_per_round = 2,
                               .seed = 9,
                               .threads = 3,
                               .obs = &obs});
    for (int r = 0; r < 5; ++r) engine.step();
    std::vector<TraceEvent> spans;
    for (const TraceEvent& e : obs.snapshot().events)
      if (static_cast<EventKind>(e.kind) == EventKind::kShardSpan)
        spans.push_back(e);
    return spans;
  };

  EXPECT_TRUE(shard_spans(false).empty());

  const std::vector<TraceEvent> spans = shard_spans(true);
  ASSERT_FALSE(spans.empty());
  for (const TraceEvent& e : spans) {
    EXPECT_LT(e.round, 5u);
    EXPECT_LT(e.slot, 2u);
    EXPECT_EQ(e.node % 16, 0u);  // first listener column of the shard
    EXPECT_GE(e.aux, 1u);        // at least one block per shard
    EXPECT_LE(e.aux, 4u);
  }
}

}  // namespace
}  // namespace udwn
