// ScenarioService behavior (src/svc/service.h): admission control,
// fault isolation (a throwing/hanging trial never poisons the worker's
// pool), live status, drain/cancel semantics, and the byte-determinism
// guarantee for per-trial records across worker/pool configurations.
#include "svc/service.h"

#include <gtest/gtest.h>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "svc/request.h"

namespace udwn::svc {
namespace {

/// Thread-safe response collector standing in for a transport session:
/// records every emitted line and counts `done` callbacks so tests can wait
/// for a request's terminal line without sleeping.
class Client {
 public:
  Emit emit() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back(line);
    };
  }

  std::function<void()> done() {
    return [this]() {
      // Notify while holding the lock: the waiting thread may destroy this
      // Client the moment the predicate holds, so cv_ must not be touched
      // after mutex_ is released.
      std::lock_guard<std::mutex> lock(mutex_);
      ++done_;
      cv_.notify_all();
    };
  }

  void wait_done(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done_ >= count; });
  }

  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

  /// Lines whose `event` field matches (cheap substring probe; every line
  /// is also JSON-validated by all_lines_are_json()).
  std::vector<std::string> events(const std::string& type) const {
    const std::string needle = "\"event\":\"" + type + "\"";
    std::vector<std::string> out;
    for (const std::string& line : lines())
      if (line.find(needle) != std::string::npos) out.push_back(line);
    return out;
  }

  void all_lines_are_json() const {
    for (const std::string& line : lines()) {
      std::string error;
      EXPECT_TRUE(Json::parse(line, &error).has_value())
          << error << ": " << line;
    }
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  int done_ = 0;
};

ParsedRequest run_line(const std::string& json) {
  ParsedRequest parsed = parse_request(json);
  EXPECT_TRUE(parsed.ok()) << json << " -> " << parsed.error->detail;
  return parsed;
}

TEST(SvcService, RunRequestStreamsAcceptedTrialsProgressSummary) {
  ScenarioService service({.workers = 2, .trial_threads = 2});
  Client client;
  service.submit(run_line("{\"type\":\"run\",\"id\":\"r\",\"trials\":3,"
                          "\"topology\":{\"kind\":\"uniform_square\","
                          "\"n\":16},\"seed\":7}"),
                 client.emit(), client.done());
  client.wait_done(1);
  client.all_lines_are_json();
  ASSERT_EQ(client.events("accepted").size(), 1u);
  ASSERT_EQ(client.events("trial").size(), 3u);
  ASSERT_GE(client.events("progress").size(), 1u);
  ASSERT_EQ(client.events("summary").size(), 1u);
  EXPECT_NE(client.events("summary")[0].find("\"ok\":3"), std::string::npos);
  // accepted precedes every trial line; summary is last.
  const auto lines = client.lines();
  EXPECT_NE(lines.front().find("\"event\":\"accepted\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"event\":\"summary\""), std::string::npos);
}

TEST(SvcService, AdmissionCapsRejectWithStructuredCodes) {
  ScenarioService service({.workers = 1, .max_trials = 4, .max_nodes = 16});
  Client client;
  service.submit(run_line("{\"type\":\"run\",\"id\":\"t\",\"trials\":8}"),
                 client.emit(), client.done());
  service.submit(
      run_line("{\"type\":\"run\",\"id\":\"n\",\"topology\":"
               "{\"kind\":\"uniform_square\",\"n\":32}}"),
      client.emit(), client.done());
  service.submit(
      run_line("{\"type\":\"run\",\"id\":\"f\",\"inject\":\"throw\"}"),
      client.emit(), client.done());
  client.wait_done(3);
  const auto rejected = client.events("rejected");
  ASSERT_EQ(rejected.size(), 3u);
  EXPECT_NE(rejected[0].find("\"error\":\"trials_exceeded\""),
            std::string::npos);
  EXPECT_NE(rejected[1].find("\"error\":\"nodes_exceeded\""),
            std::string::npos);
  EXPECT_NE(rejected[2].find("\"error\":\"fault_injection_disabled\""),
            std::string::npos);
}

TEST(SvcService, FullQueueRejectsWithBackpressure) {
  // One worker, capacity one. Block the worker inside req1's first trial
  // line so req2 must sit in the queue, then req3 deterministically hits
  // kQueueFull — no timing assumptions.
  ScenarioService service({.workers = 1, .queue_capacity = 1});
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool release = false;
  Client blocked;
  const Emit blocking_emit = [&](const std::string& line) {
    if (line.find("\"event\":\"trial\"") != std::string::npos) {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return release; });
    }
    blocked.emit()(line);
  };
  service.submit(run_line("{\"type\":\"run\",\"id\":\"slow\"}"),
                 blocking_emit, blocked.done());

  // With the lone worker blocked, the queue can absorb at most one more
  // request (capacity 1) — possibly zero if `slow` has not been popped yet.
  // So within two submits one MUST see kQueueFull; keep accepted attempts
  // alive because their queued jobs run after release.
  std::vector<std::unique_ptr<Client>> attempts;
  std::string rejection;
  for (int i = 0; i < 2 && rejection.empty(); ++i) {
    attempts.push_back(std::make_unique<Client>());
    Client& attempt = *attempts.back();
    service.submit(run_line("{\"type\":\"run\",\"id\":\"q\"}"),
                   attempt.emit(), attempt.done());
    const auto lines = attempt.lines();
    ASSERT_FALSE(lines.empty());
    if (lines[0].find("\"error\":\"queue_full\"") != std::string::npos)
      rejection = lines[0];
    else
      ASSERT_NE(lines[0].find("\"event\":\"accepted\""), std::string::npos);
  }
  ASSERT_FALSE(rejection.empty());
  EXPECT_NE(rejection.find("\"id\":\"q\""), std::string::npos);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  service.begin_shutdown();
  service.join();
}

TEST(SvcService, InjectedFaultsAreIsolatedAndPoolSurvives) {
  ScenarioService service(
      {.workers = 1, .trial_threads = 2, .allow_fault_injection = true});
  Client client;
  service.submit(
      run_line("{\"type\":\"run\",\"id\":\"boom\",\"trials\":3,"
               "\"inject\":\"throw\"}"),
      client.emit(), client.done());
  service.submit(
      run_line("{\"type\":\"run\",\"id\":\"ctr\",\"inject\":\"contract\"}"),
      client.emit(), client.done());
  // Same worker, same pool, after two fault storms: must still run clean.
  service.submit(run_line("{\"type\":\"run\",\"id\":\"after\",\"trials\":2,"
                          "\"seed\":5}"),
                 client.emit(), client.done());
  client.wait_done(3);
  client.all_lines_are_json();

  int failed = 0;
  int ok = 0;
  for (const std::string& line : client.events("trial")) {
    if (line.find("\"status\":\"failed\"") != std::string::npos) ++failed;
    if (line.find("\"status\":\"ok\"") != std::string::npos) ++ok;
  }
  EXPECT_EQ(failed, 4);  // 3 throws + 1 contract violation
  EXPECT_EQ(ok, 2);
  bool saw_injected_detail = false;
  for (const std::string& line : client.events("trial"))
    if (line.find("injected fault") != std::string::npos)
      saw_injected_detail = true;
  EXPECT_TRUE(saw_injected_detail);
  const auto summaries = client.events("summary");
  ASSERT_EQ(summaries.size(), 3u);
  EXPECT_NE(summaries[2].find("\"ok\":2,\"failed\":0"), std::string::npos);
}

TEST(SvcService, RoundBudgetTurnsHangsIntoTimeouts) {
  ScenarioService service({.workers = 1, .allow_fault_injection = true});
  Client client;
  service.submit(
      run_line("{\"type\":\"run\",\"id\":\"h\",\"trials\":2,"
               "\"inject\":\"hang\",\"max_rounds\":16}"),
      client.emit(), client.done());
  client.wait_done(1);
  const auto trials = client.events("trial");
  ASSERT_EQ(trials.size(), 2u);
  for (const std::string& line : trials)
    EXPECT_NE(line.find("\"status\":\"timeout\""), std::string::npos) << line;
  EXPECT_NE(client.events("summary")[0].find("\"timeout\":2"),
            std::string::npos);
}

TEST(SvcService, CancelInflightStopsTrialsAtRoundBoundaries) {
  // Budget high enough that the hang cannot time out first; cancellation is
  // the only way these trials end.
  ScenarioService service({.workers = 1,
                           .default_max_rounds = 100000000,
                           .allow_fault_injection = true});
  Client client;
  service.submit(
      run_line("{\"type\":\"run\",\"id\":\"c\",\"trials\":2,"
               "\"inject\":\"hang\"}"),
      client.emit(), client.done());
  service.cancel_inflight();
  client.wait_done(1);
  const auto trials = client.events("trial");
  ASSERT_EQ(trials.size(), 2u);
  for (const std::string& line : trials)
    EXPECT_NE(line.find("\"status\":\"cancelled\""), std::string::npos)
        << line;
  service.join();
}

TEST(SvcService, ShutdownRejectsRunsButStillServesStatus) {
  ScenarioService service({.workers = 1});
  service.begin_shutdown();
  Client client;
  service.submit(run_line("{\"type\":\"run\",\"id\":\"late\"}"),
                 client.emit(), client.done());
  service.submit(run_line("{\"type\":\"status\",\"id\":\"s\"}"),
                 client.emit(), client.done());
  client.wait_done(2);
  const auto rejected = client.events("rejected");
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_NE(rejected[0].find("\"error\":\"shutting_down\""),
            std::string::npos);
  const auto status = client.events("status");
  ASSERT_EQ(status.size(), 1u);
  EXPECT_NE(status[0].find("\"shutting_down\":true"), std::string::npos);
  service.join();
}

TEST(SvcService, StatusExposesCountersQueueAndUptime) {
  ScenarioService service({.workers = 2});
  Client client;
  service.submit(run_line("{\"type\":\"run\",\"id\":\"w\",\"trials\":2,"
                          "\"topology\":{\"kind\":\"uniform_square\","
                          "\"n\":12}}"),
                 client.emit(), client.done());
  client.wait_done(1);
  service.submit(run_line("{\"type\":\"status\",\"id\":\"s\"}"),
                 client.emit(), client.done());
  client.wait_done(2);
  const auto status = client.events("status");
  ASSERT_EQ(status.size(), 1u);
  std::string error;
  const auto parsed = Json::parse(status[0], &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->find("workers")->as_uint64(), 2u);
  EXPECT_EQ(parsed->find("queue_depth")->as_uint64(), 0u);
  EXPECT_GT(parsed->find("uptime_ns")->as_uint64(), 0u);
  const Json* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("svc.requests_accepted")->as_uint64(), 1u);
  EXPECT_EQ(counters->find("svc.trials_ok")->as_uint64(), 2u);
  // Engine metrics folded in at the post-batch quiescent point.
  EXPECT_NE(counters->find("engine.rounds"), nullptr);
  EXPECT_NE(status[0].find("\"event\":\"status\""), std::string::npos);
  EXPECT_NE(service.final_stats().find("accepted=1"), std::string::npos);
}

TEST(SvcService, TrialRecordBytesAreInvariantAcrossServiceShape) {
  // The determinism contract (ISSUE satellite 6): identical request+seed →
  // byte-identical per-trial records regardless of worker count, trial-pool
  // width, or progress-block partitioning.
  const std::string line =
      "{\"type\":\"run\",\"id\":\"det\",\"protocol\":\"bcast\","
      "\"topology\":{\"kind\":\"cluster_chain\",\"clusters\":4,"
      "\"per_cluster\":5},\"dynamics\":{\"churn_rate\":0.02},"
      "\"trials\":5,\"seed\":99}";
  const ServiceConfig shapes[] = {
      {.workers = 1, .trial_threads = 1, .progress_every = 32},
      {.workers = 3, .trial_threads = 4, .progress_every = 2},
      {.workers = 2, .trial_threads = 2, .progress_every = 1},
  };
  std::vector<std::vector<std::string>> runs;
  for (const ServiceConfig& shape : shapes) {
    ScenarioService service(shape);
    Client client;
    // Background load on the other workers must not perturb the bytes.
    Client noise;
    service.submit(run_line("{\"type\":\"run\",\"id\":\"noise\","
                            "\"trials\":3,\"seed\":1234}"),
                   noise.emit(), noise.done());
    service.submit(run_line(line), client.emit(), client.done());
    client.wait_done(1);
    noise.wait_done(1);
    runs.push_back(client.events("trial"));
  }
  ASSERT_EQ(runs[0].size(), 5u);
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

}  // namespace
}  // namespace udwn::svc
