#include "svc/service.h"

#include <algorithm>
#include <utility>

#include "obs/clock.h"
#include "obs/obs.h"
#include "sim/batch.h"
#include "svc/exec.h"

namespace udwn::svc {

namespace {

// Service-level StatusBoard counter names (docs/SERVICE.md). Engine metric
// names come from the workers' MetricsRegistry folds and live alongside.
constexpr const char* kAccepted = "svc.requests_accepted";
constexpr const char* kRejected = "svc.requests_rejected";
constexpr const char* kCompleted = "svc.requests_completed";
constexpr const char* kStatusServed = "svc.status_served";
constexpr const char* kTrialsOk = "svc.trials_ok";
constexpr const char* kTrialsFailed = "svc.trials_failed";
constexpr const char* kTrialsTimeout = "svc.trials_timeout";
constexpr const char* kTrialsCancelled = "svc.trials_cancelled";

}  // namespace

/// One worker = one thread + one long-lived trial pool + one private Obs.
/// The Obs registry is written shard-locally by that worker's engines and
/// pool; `folded` tracks the last snapshot already folded into the shared
/// StatusBoard (see obs/status.h for the quiescence argument). The handle
/// keeps counters only: `status` folds the registry and nothing reads a
/// trace ring, so events stay off.
struct ScenarioService::Worker {
  explicit Worker(const ServiceConfig& config)
      : runner(BatchConfig{.threads = config.trial_threads}),
        obs(ObsConfig{.events = false}) {}

  BatchRunner runner;
  Obs obs;
  MetricsRegistry::Snapshot folded;
};

// The service's two clock reads stamp the uptime of `status` responses
// (docs/SERVICE.md); each carries its own det-wall-clock allow, so trial
// code (svc/exec.cpp) stays inside the fence. The allows need one line each,
// past the column limit, hence the clang-format guards.
// clang-format off
ScenarioService::ScenarioService(ServiceConfig config)
    : config_(config), start_ns_(obs_now_ns()) {  // udwn-lint: allow(det-wall-clock): status uptime telemetry
  // clang-format on
  const int workers = std::max(1, config_.workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    workers_.push_back(std::make_unique<Worker>(config_));
  for (int w = 0; w < workers; ++w)
    threads_.emplace_back(
        [this, w] { worker_loop(*workers_[static_cast<std::size_t>(w)]); });
}

ScenarioService::~ScenarioService() {
  begin_shutdown();
  join();
}

std::size_t ScenarioService::topology_nodes(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologyKind::kUniformSquare: return spec.n;
    case TopologyKind::kLattice: return spec.rows * spec.cols;
    case TopologyKind::kClusterChain: return spec.clusters * spec.per_cluster;
  }
  return 0;
}

void ScenarioService::reject(const ParsedRequest& request, const Emit& emit,
                             ErrorCode code, std::string detail) {
  board_.add(kRejected, 1);
  emit(encode_rejected(request.id, RequestError{code, std::move(detail)}));
}

void ScenarioService::submit(const ParsedRequest& request, Emit emit,
                             std::function<void()> done) {
  if (!request.ok()) {
    board_.add(kRejected, 1);
    emit(encode_rejected(request.id, *request.error));
    done();
    return;
  }
  if (request.status.has_value()) {
    board_.add(kStatusServed, 1);
    emit(status_line(request.id));
    done();
    return;
  }

  const RunRequest& run = *request.run;
  if (run.inject != FaultInjection::kNone && !config_.allow_fault_injection) {
    reject(request, emit, ErrorCode::kFaultInjectionOff,
           "inject requires --enable-test-faults");
    done();
    return;
  }
  if (run.trials > config_.max_trials) {
    reject(request, emit, ErrorCode::kTrialsExceeded,
           "trials " + std::to_string(run.trials) + " > cap " +
               std::to_string(config_.max_trials));
    done();
    return;
  }
  const std::size_t nodes = topology_nodes(run.topology);
  if (nodes > config_.max_nodes) {
    reject(request, emit, ErrorCode::kNodesExceeded,
           "n " + std::to_string(nodes) + " > cap " +
               std::to_string(config_.max_nodes));
    done();
    return;
  }

  // Admission + the `accepted` line happen under the mutex so the accepted
  // event is on the wire before any worker can emit a trial line for this
  // request.
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutting_down_) {
    lock.unlock();
    reject(request, emit, ErrorCode::kShuttingDown, "daemon is draining");
    done();
    return;
  }
  if (queue_.size() >= config_.queue_capacity) {
    lock.unlock();
    reject(request, emit, ErrorCode::kQueueFull,
           "queue at capacity " + std::to_string(config_.queue_capacity));
    done();
    return;
  }
  queue_.push_back(Job{run, std::move(emit), std::move(done)});
  const std::size_t depth = queue_.size();
  board_.add(kAccepted, 1);
  queue_.back().emit(encode_accepted(request.id, depth));
  lock.unlock();
  queue_cv_.notify_one();
}

void ScenarioService::begin_shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  queue_cv_.notify_all();
}

void ScenarioService::cancel_inflight() {
  begin_shutdown();
  cancel_.store(true, std::memory_order_relaxed);
}

void ScenarioService::join() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (joined_) return;
    joined_ = true;
  }
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
}

void ScenarioService::worker_loop(Worker& worker) {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock,
                     [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    try {
      process(worker, job);
    } catch (const std::exception& error) {
      // Failure outside any trial (allocation, encoding). run_checked
      // already contains trial faults, so this is the last-resort terminal
      // line that keeps the request from dangling.
      job.emit(encode_rejected(
          job.request.id, RequestError{ErrorCode::kInternal, error.what()}));
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
    }
    board_.add(kCompleted, 1);
    job.done();
  }
}

void ScenarioService::process(Worker& worker, const Job& job) {
  const RunRequest& request = job.request;
  const std::uint32_t trials = request.trials;
  const std::vector<std::uint64_t> seeds =
      BatchRunner::trial_seeds(request.seed, trials);

  BatchConfig budgets;
  budgets.max_rounds =
      request.max_rounds != 0
          ? std::min(request.max_rounds, config_.default_max_rounds)
          : config_.default_max_rounds;
  budgets.trial_deadline_ns =
      std::min(request.deadline_ms, config_.max_deadline_ms) * 1000000ull;
  budgets.cancel = &cancel_;

  ExecConfig exec;
  exec.gain_budget_bytes = config_.gain_budget_bytes;
  exec.obs = &worker.obs;

  RunSummary summary;
  const std::uint32_t block_size =
      config_.progress_every != 0 ? config_.progress_every : trials;
  std::uint32_t emitted = 0;
  while (emitted < trials) {
    const std::uint32_t block =
        std::min(block_size, trials - emitted);
    const std::uint32_t base = emitted;
    auto batch = worker.runner.run_checked_budgeted(
        block, budgets, [&](std::size_t k) {
          const std::uint32_t index = base + static_cast<std::uint32_t>(k);
          return run_trial(request, exec, seeds[index], index);
        });
    // run_checked joined: a quiescent point for this worker's registry.
    board_.fold_registry_delta(worker.obs.metrics().snapshot(),
                               &worker.folded);
    for (std::uint32_t k = 0; k < block; ++k) {
      TrialRecord record = std::move(batch.results[k]);
      const TrialStatus status = batch.status[k];
      record.trial = base + k;  // failed trials carry defaults
      record.seed = seeds[base + k];
      record.status = to_string(status);
      switch (status) {
        case TrialStatus::kOk:
          ++summary.ok;
          summary.rounds_total += record.rounds;
          board_.add(kTrialsOk, 1);
          break;
        case TrialStatus::kFailed:
          ++summary.failed;
          board_.add(kTrialsFailed, 1);
          break;
        case TrialStatus::kTimedOut:
          ++summary.timeout;
          board_.add(kTrialsTimeout, 1);
          break;
        case TrialStatus::kCancelled:
          ++summary.cancelled;
          board_.add(kTrialsCancelled, 1);
          break;
      }
      for (const TrialError& error : batch.errors)
        if (error.index == k) record.error = error.what;
      job.emit(encode_trial(request.id, record));
    }
    emitted += block;
    job.emit(encode_progress(request.id, emitted, trials));
  }
  job.emit(encode_summary(request.id, summary));
}

std::string ScenarioService::status_line(std::string_view id) const {
  std::size_t depth = 0;
  std::size_t in_flight = 0;
  bool draining = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    depth = queue_.size();
    in_flight = in_flight_;
    draining = shutting_down_;
  }
  auto counters = board_.snapshot();
  std::sort(counters.begin(), counters.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // clang-format off
  std::string out = "{\"id\":\"" + Json::escape(id) +
                    "\",\"event\":\"status\",\"uptime_ns\":" +
                    std::to_string(obs_now_ns() - start_ns_) +  // udwn-lint: allow(det-wall-clock): status uptime telemetry
                    ",\"queue_depth\":" + std::to_string(depth) +
                    ",\"in_flight\":" + std::to_string(in_flight) +
                    ",\"shutting_down\":" + (draining ? "true" : "false") +
                    ",\"workers\":" +
                    std::to_string(workers_.size()) + ",\"counters\":{";
  // clang-format on
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) out += ',';
    out += '"' + Json::escape(counters[i].first) +
           "\":" + std::to_string(counters[i].second);
  }
  out += "}}";
  return out;
}

std::string ScenarioService::final_stats() const {
  return "udwnd: accepted=" + std::to_string(board_.value(kAccepted)) +
         " rejected=" + std::to_string(board_.value(kRejected)) +
         " completed=" + std::to_string(board_.value(kCompleted)) +
         " trials_ok=" + std::to_string(board_.value(kTrialsOk)) +
         " trials_failed=" + std::to_string(board_.value(kTrialsFailed)) +
         " trials_timeout=" + std::to_string(board_.value(kTrialsTimeout)) +
         " trials_cancelled=" +
         std::to_string(board_.value(kTrialsCancelled));
}

}  // namespace udwn::svc
