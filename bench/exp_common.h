// Shared scaffolding for the experiment binaries (bench/exp*). Each binary
// reproduces one claim of the paper (see DESIGN.md experiment index) and
// prints (a) the measured table and (b) a SHAPE CHECK block summarizing
// whether the claim's trend holds in this run. A failed check, like a
// failed trial, makes the binary exit nonzero (see finish()).
// EXPERIMENTS.md records the reference output.
//
// Machine-readable output: with UDWN_JSON=<path> in the environment, every
// banner/show/shape_check call is mirrored into a JSON document written to
// <path> by common/json.h when the process exits — experiment id + claim,
// every table (headers + string rows), and every shape-check verdict.
// UDWN_CSV=1 keeps emitting inline CSV as before; the two are independent.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/recorders.h"
#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "bench/cpu_features.h"
#include "common/env.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "obs/obs.h"
#include "sim/batch.h"
#include "topo/generators.h"

namespace udwn::bench {

namespace detail {

/// Collects everything the binary reported and flushes it as one JSON
/// document at static-destruction time (covers early std::exit too, since
/// the sink registers no threads and fstream flushes in its destructor).
class JsonSink {
 public:
  static JsonSink& instance() {
    static JsonSink sink;
    return sink;
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  void set_experiment(const std::string& id, const std::string& claim) {
    experiment_ = id;
    claim_ = claim;
  }

  void add_table(const Table& table) {
    if (!enabled()) return;
    tables_.push_back({table.headers(), table.rows()});
  }

  void add_check(bool ok, const std::string& what) {
    if (!enabled()) return;
    checks_.emplace_back(ok, what);
  }

  void add_metric(const std::string& name, double value) {
    if (!enabled()) return;
    metrics_.emplace_back(name, value);
  }

  ~JsonSink() {
    if (!enabled()) return;
    std::ofstream os(path_);
    if (!os) {
      std::cerr << "UDWN_JSON: cannot open " << path_ << " for writing\n";
      return;
    }
    const auto strings = [](const std::vector<std::string>& values) {
      std::vector<Json> items;
      for (const std::string& value : values)
        items.push_back(Json::string(value));
      return Json::array(std::move(items));
    };
    std::vector<Json> tables;
    for (const auto& [headers, rows] : tables_) {
      std::vector<Json> row_items;
      for (const auto& row : rows) row_items.push_back(strings(row));
      tables.push_back(
          Json::object({{"headers", strings(headers)},
                        {"rows", Json::array(std::move(row_items))}}));
    }
    std::vector<Json> metrics;
    for (const auto& [name, value] : metrics_)
      metrics.push_back(Json::object(
          {{"name", Json::string(name)}, {"value", Json::number(value)}}));
    std::vector<Json> checks;
    for (const auto& [ok, what] : checks_)
      checks.push_back(Json::object(
          {{"ok", Json::boolean(ok)}, {"what", Json::string(what)}}));
    const Json doc = Json::object({
        {"experiment", Json::string(experiment_)},
        {"claim", Json::string(claim_)},
        {"cpu_features", Json::string(cpu_features_string())},
        {"tables", Json::array(std::move(tables))},
        {"metrics", Json::array(std::move(metrics))},
        {"checks", Json::array(std::move(checks))},
    });
    os << doc.dump() << '\n';
  }

 private:
  JsonSink() {
    if (const char* path = std::getenv("UDWN_JSON"); path && path[0] != '\0')
      path_ = path;
  }

  std::string path_;
  std::string experiment_;
  std::string claim_;
  std::vector<std::pair<std::vector<std::string>,
                        std::vector<std::vector<std::string>>>>
      tables_;
  std::vector<std::pair<bool, std::string>> checks_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Owns the binary's UDWN_TRACE observability session: when the env var
/// names a path, one Obs handle exists for the process and its binary trace
/// (obs/trace.h) is written at static destruction. Experiments attach the
/// handle to exactly ONE serial engine run (never to cells inside
/// run_trials — concurrent trials would interleave ring writes and the
/// trace would stop being reproducible).
class TraceSession {
 public:
  static TraceSession& instance() {
    static TraceSession session;
    return session;
  }

  [[nodiscard]] Obs* obs() { return obs_.get(); }

  ~TraceSession() {
    if (obs_ == nullptr) return;
    if (obs_->write(path_))
      std::cout << "UDWN_TRACE: wrote " << path_ << "\n";
    else
      std::cerr << "UDWN_TRACE: cannot write " << path_ << "\n";
  }

 private:
  TraceSession() {
    if (const char* path = std::getenv("UDWN_TRACE"); path && path[0] != '\0') {
      path_ = path;
      // Experiment cells emit per-delivery events, so a full run needs a
      // deeper ring than the engine default to avoid dropping its prefix
      // (2^18 events = 6 MiB — diagnostic-run territory). State-transition
      // tracking is on: traces exist to show protocol phase structure.
      obs_ = std::make_unique<Obs>(
          ObsConfig{.ring_capacity = std::size_t{1} << 18,
                    .state_transitions = true});
    }
  }

  std::string path_;
  std::unique_ptr<Obs> obs_;
};

}  // namespace detail

/// The process-wide Obs handle when UDWN_TRACE=<path> is set, else nullptr.
/// Pass it to one representative serial run; see detail::TraceSession.
inline Obs* trace_obs() { return detail::TraceSession::instance().obs(); }

/// Print a result table; with UDWN_CSV=1 in the environment, also emit the
/// machine-readable CSV right after it. With UDWN_JSON=<path>, the table is
/// additionally captured into the end-of-run JSON document.
inline void show(const Table& table) {
  table.print(std::cout);
  if (const char* csv = std::getenv("UDWN_CSV"); csv && csv[0] == '1') {
    std::cout << "--- csv ---\n";
    table.print_csv(std::cout);
    std::cout << "--- end csv ---\n";
  }
  detail::JsonSink::instance().add_table(table);
}

inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "==================================================================\n"
            << id << "\n" << claim << "\n"
            << "==================================================================\n";
  detail::JsonSink::instance().set_experiment(id, claim);
}

namespace detail {

/// Shape checks that failed so far in this process; finish() turns a
/// nonzero count into a nonzero exit code.
inline int& failed_shape_checks() {
  static int count = 0;
  return count;
}

}  // namespace detail

/// Print one verdict of the binary's SHAPE CHECK block and mirror it into
/// the JSON document. A failed check makes finish() return nonzero.
inline void shape_check(bool ok, const std::string& what) {
  std::cout << (ok ? "  [OK]   " : "  [FAIL] ") << what << "\n";
  if (!ok) ++detail::failed_shape_checks();
  detail::JsonSink::instance().add_check(ok, what);
}

/// Report a named scalar metric: printed inline and mirrored into the JSON
/// document's "metrics" array (non-finite values become JSON null — see
/// Json::dump).
inline void metric(const std::string& name, double value) {
  std::cout << "  " << name << " = " << value << "\n";
  detail::JsonSink::instance().add_metric(name, value);
}

inline void shape_header() { std::cout << "\nSHAPE CHECK\n"; }

/// Seeds for repetitions: deterministic but distinct per experiment.
inline std::vector<std::uint64_t> seeds(std::uint64_t base, int reps) {
  std::vector<std::uint64_t> out;
  for (int r = 0; r < reps; ++r) out.push_back(base * 1000 + r);
  return out;
}

/// Trial-level parallelism for run_trials: UDWN_THREADS overrides (strictly
/// parsed — a malformed value warns and is ignored), else the hardware
/// concurrency clamped to [1, 4] (experiment cells are short; more workers
/// than that just fight over memory bandwidth).
inline int trial_threads() {
  if (const auto v = env_int("UDWN_THREADS", 1, 512))
    return static_cast<int>(*v);
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/// Batch configuration for run_trials: thread count plus the optional
/// per-trial budgets UDWN_TRIAL_MAX_ROUNDS (engine rounds) and
/// UDWN_TRIAL_DEADLINE_MS (wall clock). Budgets cancel a runaway trial at
/// its next round boundary and record it as a timeout instead of hanging
/// the whole sweep; unset = unlimited (the default, bit-identical path).
inline BatchConfig batch_config() {
  BatchConfig config{.threads = trial_threads()};
  if (const auto rounds =
          env_int("UDWN_TRIAL_MAX_ROUNDS", 1, 1'000'000'000'000))
    config.max_rounds = static_cast<std::uint64_t>(*rounds);
  if (const auto ms = env_int("UDWN_TRIAL_DEADLINE_MS", 1, 1'000'000'000))
    config.trial_deadline_ns = static_cast<std::uint64_t>(*ms) * 1'000'000;
  return config;
}

namespace detail {

/// Process-wide record of failed / timed-out trials across every run_trials
/// batch in the binary. finish() prints the collected table and turns it
/// into a nonzero exit code, so one bad trial mid-sweep no longer aborts
/// the binary (and can no longer hide in a green exit status either).
class TrialFailureLog {
 public:
  static TrialFailureLog& instance() {
    static TrialFailureLog log;
    return log;
  }

  void add(std::vector<TrialError> errors) {
    for (TrialError& error : errors) errors_.push_back(std::move(error));
  }

  [[nodiscard]] bool empty() const { return errors_.empty(); }

  void report() {
    Table table({"trial", "seed", "outcome", "error"});
    for (const TrialError& error : errors_) {
      table.row()
          .add(error.index)
          .add(static_cast<std::int64_t>(error.seed))
          .add(to_string(error.status))
          .add(error.what);
    }
    std::cout << "\nTRIAL FAILURES\n";
    show(table);
    JsonSink::instance().add_check(
        false, std::to_string(errors_.size()) + " trial(s) failed");
  }

 private:
  TrialFailureLog() = default;
  std::vector<TrialError> errors_;
};

}  // namespace detail

/// Run one trial per seed concurrently on the binary's single shared
/// BatchRunner pool and return the results in seed order. `fn` must derive
/// all randomness from its seed argument and build engines with
/// EngineConfig::threads == 1 (trial-level parallelism replaces slot-level
/// parallelism; the TaskPool is not reentrant). Results are deterministic
/// and identical to a serial loop for any pool size — see sim/batch.h.
///
/// Faults are isolated per trial: a throwing (or contract-violating, or
/// over-budget) trial becomes a TrialError in the process-wide failure log
/// — its slot in the returned vector stays default-constructed — while
/// sibling trials complete. End main() with `return finish();` so recorded
/// failures (and failed shape checks) surface as a nonzero exit code.
template <typename Fn>
auto run_trials(const std::vector<std::uint64_t>& trial_seeds, Fn&& fn)
    -> std::vector<decltype(fn(std::uint64_t{0}))> {
  static BatchRunner runner{batch_config()};
  auto outcome = runner.run_checked(
      trial_seeds.size(), [&](std::size_t k) { return fn(trial_seeds[k]); });
  if (!outcome.ok()) {
    for (TrialError& error : outcome.errors)
      error.seed = trial_seeds[error.index];
    detail::TrialFailureLog::instance().add(std::move(outcome.errors));
  }
  return std::move(outcome.results);
}

/// Exit-code epilogue for every experiment binary: prints the trial-failure
/// table when any run_trials batch recorded failures, and returns the
/// process exit code — 0 only when every trial completed and every
/// shape_check held.
inline int finish() {
  int status = 0;
  if (auto& log = detail::TrialFailureLog::instance(); !log.empty()) {
    log.report();
    status = 1;
  }
  if (const int failed = detail::failed_shape_checks(); failed > 0) {
    std::cout << "\n" << failed << " shape check(s) failed\n";
    status = 1;
  }
  return status;
}

}  // namespace udwn::bench
