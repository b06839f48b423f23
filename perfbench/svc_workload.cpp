// svc-closed-loop: the udwnd daemon measured through its Unix socket.
//
// The run spawns the real daemon (built from tools/udwnd.cpp next to this
// driver) with --workers 2 and one trial thread, and drives one client
// connection as a closed loop with two requests in flight. Requests come
// from a seeded sequence that alternates `run` and `status`; each run is a
// 4-trial LocalBcast or churned Bcast(β) request on a 256-node uniform
// square. Latency is measured from the request write to its terminal line
// (summary, rejected or status); admission latency ends at `accepted`.
//
// Checks: every request gets exactly one terminal line, every trial is ok,
// and the trial records of sampled requests are byte-identical to a direct
// run_trial for the same (request, seed).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "sim/batch.h"
#include "svc/exec.h"
#include "svc/request.h"
#include "svc/service.h"

namespace perfbench {
namespace {

using namespace udwn;

constexpr int kInFlight = 2;
constexpr int kTrials = 4;
constexpr int kNodes = 256;
constexpr double kChurnRate = 0.01;
constexpr int kSetups = 5;               // daemon start-ups per run
constexpr std::size_t kChecked = 2;      // run requests replayed directly
constexpr std::size_t kCheckedTraced = 6;
constexpr std::int64_t kIoTimeoutNs = 60'000'000'000;

/// The string value of `"key":"..."` in one response line (the encoders
/// never escape the fields read here: ids and event names are plain).
std::string field_string(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":\"";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + pat.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string_view::npos) return {};
  return std::string(line.substr(begin, end - begin));
}

std::uint64_t field_uint(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = at + pat.size();
       i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i)
    v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
  return v;
}

struct Request {
  std::string id;
  std::string line;
  bool is_run = false;
  std::int64_t sent = 0;
  std::int64_t accepted = 0;
  std::int64_t done = 0;
  std::size_t probe_batch = 0;  // host-speed probe batch before the send
  int terminals = 0;
  std::string terminal_event;
  std::uint64_t rounds_total = 0;
  std::uint64_t ok_trials = 0;
  std::vector<std::string> trial_lines;
};

std::vector<std::string> make_request_lines(std::uint64_t seed,
                                            std::size_t count) {
  Rng rng(mix_seed(seed, 77));
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string id = (i % 2 == 0 ? "r" : "s") + std::to_string(i);
    if (i % 2 == 1) {
      lines.push_back("{\"type\":\"status\",\"id\":\"" + id + "\"}");
      continue;
    }
    const bool bcast = rng.chance(0.5);
    const std::uint64_t trial_seed = rng() >> 11;
    std::string line = "{\"type\":\"run\",\"id\":\"" + id +
                       "\",\"protocol\":\"" +
                       (bcast ? "bcast" : "local_bcast") +
                       "\",\"topology\":{\"kind\":\"uniform_square\",\"n\":" +
                       std::to_string(kNodes) + "}";
    if (bcast) {
      char rate[32];
      std::snprintf(rate, sizeof rate, "%g", kChurnRate);
      line += std::string(",\"dynamics\":{\"churn_rate\":") + rate + "}";
    }
    line += ",\"trials\":" + std::to_string(kTrials) +
            ",\"seed\":" + std::to_string(trial_seed) + "}";
    lines.push_back(line);
  }
  return lines;
}

/// A spawned udwnd and one client connection to it.
class Daemon {
 public:
  Daemon(const std::string& bin_dir, int index) {
    socket_path_ = bin_dir + "/udwnd-" + std::to_string(getpid()) + "-" +
                   std::to_string(index) + ".sock";
    ::unlink(socket_path_.c_str());
    const std::string exe = bin_dir + "/perfbench_udwnd";
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Never outlive the benchmark, even when it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int devnull = ::open("/dev/null", O_RDWR);
      if (devnull >= 0) {
        ::dup2(devnull, 0);
        ::dup2(devnull, 1);
      }
      const char* argv[] = {exe.c_str(), "--socket", socket_path_.c_str(),
                            "--workers", "2", "--trial-threads", "1",
                            nullptr};
      ::execv(exe.c_str(), const_cast<char* const*>(argv));
      std::_Exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Connects, retrying while the daemon binds its socket.
  void connect_socket() {
    const std::int64_t deadline = now_ns() + 20'000'000'000;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path_.size() >= sizeof addr.sun_path)
      throw std::runtime_error("socket path too long: " + socket_path_);
    std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
          0)
        return;
      ::close(fd_);
      fd_ = -1;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("udwnd exited before listening");
      }
      if (now_ns() > deadline)
        throw std::runtime_error("udwnd did not listen in time");
      ::usleep(500);
    }
  }

  void send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t w = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("send failed");
      }
      off += static_cast<std::size_t>(w);
    }
  }

  /// Next complete response line (blocking, bounded by kIoTimeoutNs).
  std::string read_line() {
    const std::int64_t deadline = now_ns() + kIoTimeoutNs;
    while (true) {
      const std::size_t nl = buffer_.find('\n', scan_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scan_ = 0;
        return line;
      }
      scan_ = buffer_.size();
      pollfd p{fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, 1000);
      if (r < 0 && errno != EINTR) throw std::runtime_error("poll failed");
      if (now_ns() > deadline)
        throw std::runtime_error("timed out waiting for udwnd");
      if (r <= 0) continue;
      char chunk[65536];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got == 0) throw std::runtime_error("udwnd closed the connection");
      if (got < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("recv failed");
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// Graceful drain: close the client, SIGINT, wait. Returns the daemon's
  /// exit status (0 on a clean drain), or -1 when it was already reaped.
  int stop() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    int code = -1;
    if (pid_ > 0) {
      ::kill(pid_, SIGINT);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
      pid_ = -1;
    }
    ::unlink(socket_path_.c_str());
    return code;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
  int fd_ = -1;
  std::string buffer_;
  std::size_t scan_ = 0;
};

/// Start a daemon and wait until it answers a status request.
std::unique_ptr<Daemon> start_daemon(const Options& options, int index,
                                     double& setup_ns) {
  const std::int64_t begin = now_ns();
  auto daemon = std::make_unique<Daemon>(options.bin_dir, index);
  daemon->connect_socket();
  daemon->send_line("{\"type\":\"status\",\"id\":\"setup\"}");
  const std::string line = daemon->read_line();
  setup_ns = static_cast<double>(now_ns() - begin);
  if (field_string(line, "event") != "status")
    throw std::runtime_error("unexpected first response: " + line);
  return daemon;
}

template <typename Fn>
double median_call_us(int batches, int per_batch, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t = now_ns();
    for (int i = 0; i < per_batch; ++i) fn(i);
    per_call.push_back(static_cast<double>(now_ns() - t) / per_batch / 1e3);
  }
  return median(per_call);
}

}  // namespace

Result run_svc_workload(const Options& options) {
  Result result;
  SpeedProbe probe;
  probe.sample(10);
  std::vector<double> setup_ns;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < kSetups; ++k) {
    double ns = 0;
    daemon = start_daemon(options, k, ns);
    setup_ns.push_back(ns);
    if (k + 1 < kSetups)
      result.check(daemon->stop() == 0, "udwnd start-up " +
                                            std::to_string(k) +
                                            " drained with exit 0");
  }

  // --- Closed loop ---------------------------------------------------------
  // Generous pre-generated sequence; the loop consumes a prefix of it.
  const std::vector<std::string> lines = make_request_lines(options.seed, 20000);
  std::vector<Request> requests;
  requests.reserve(lines.size());
  std::map<std::string, std::size_t> by_id;
  std::size_t next = 0;
  int in_flight = 0;
  probe.sample(5);
  const std::int64_t loop_begin = now_ns();
  const std::int64_t stop_at =
      loop_begin + static_cast<std::int64_t>(options.seconds * 1e9);
  auto send_next = [&] {
    Request r;
    r.line = lines[next];
    r.id = (next % 2 == 0 ? "r" : "s") + std::to_string(next);
    r.is_run = next % 2 == 0;
    r.probe_batch = probe.batches() - 1;
    by_id[r.id] = requests.size();
    r.sent = now_ns();
    daemon->send_line(r.line);
    requests.push_back(std::move(r));
    ++next;
    ++in_flight;
  };
  // Every kProbeEveryNs the loop stops sending, lets both requests finish,
  // and samples the host-speed probe while the daemon is idle; the pauses
  // are left out of the loop time.
  constexpr std::int64_t kProbeEveryNs = 4'000'000'000;
  std::int64_t next_probe = loop_begin + kProbeEveryNs;
  // Stretches of the loop between probe batches: (batch before, ns).
  std::vector<std::pair<std::size_t, double>> chunks;
  std::int64_t chunk_begin = loop_begin;
  bool pausing = false;
  std::uint64_t stray = 0;
  while (true) {
    while (!pausing && in_flight < kInFlight && now_ns() < stop_at &&
           next < lines.size())
      send_next();
    if (in_flight == 0) {
      const std::int64_t t = now_ns();
      chunks.emplace_back(probe.batches() - 1,
                          static_cast<double>(t - chunk_begin));
      if (!pausing) break;
      probe.sample(5);
      chunk_begin = now_ns();
      pausing = false;
      next_probe += kProbeEveryNs;
      continue;
    }
    const std::string line = daemon->read_line();
    const std::int64_t t = now_ns();
    const auto it = by_id.find(field_string(line, "id"));
    if (it == by_id.end()) {
      ++stray;
      continue;
    }
    Request& r = requests[it->second];
    const std::string event = field_string(line, "event");
    if (event == "accepted") {
      r.accepted = t;
    } else if (event == "trial") {
      r.trial_lines.push_back(line);
      if (field_string(line, "status") == "ok") ++r.ok_trials;
    } else if (event == "summary" || event == "rejected" ||
               event == "status") {
      if (r.terminals++ == 0) {
        r.done = t;
        r.terminal_event = event;
        r.rounds_total = field_uint(line, "rounds_total");
      }
      --in_flight;
      if (t >= next_probe && t < stop_at) pausing = true;
    }
  }
  const int drain_code = daemon->stop();
  daemon.reset();
  result.check(drain_code == 0, "udwnd drained with exit 0");
  const double rss = peak_rss_mb(true);
  probe.sample(10);

  // --- Checks and latencies -------------------------------------------------
  // Raw latencies, and the same at the reference speed (`_k`).
  std::vector<double> req_ms, status_ms, admit_ms, ms_per_round;
  std::vector<double> req_k, status_k, per_round_k;
  std::uint64_t rounds_total = 0, bad_terminals = 0, runs = 0;
  for (const Request& r : requests) {
    result.attempted += 1;
    if (r.terminals != 1) ++bad_terminals;
    const double ms = ns_to_ms(static_cast<double>(r.done - r.sent));
    const double f = probe.scale_after(r.probe_batch);
    if (!r.is_run) {
      if (r.terminal_event != "status") ++result.failed;
      status_ms.push_back(ms);
      status_k.push_back(ms * f);
      continue;
    }
    ++runs;
    result.attempted += kTrials;
    if (r.terminal_event != "summary" || r.accepted == 0) ++result.failed;
    result.failed += kTrials - std::min<std::uint64_t>(r.ok_trials, kTrials);
    req_ms.push_back(ms);
    req_k.push_back(ms * f);
    if (r.accepted != 0)
      admit_ms.push_back(ns_to_ms(static_cast<double>(r.accepted - r.sent)));
    rounds_total += r.rounds_total;
    if (r.rounds_total > 0) {
      ms_per_round.push_back(ms / static_cast<double>(r.rounds_total));
      per_round_k.push_back(ms_per_round.back() * f);
    }
  }
  result.check(bad_terminals == 0 && stray == 0,
               "each of " + std::to_string(requests.size()) +
                   " requests got exactly one terminal line");
  result.check(result.failed == 0,
               "no rejected request and no non-ok trial");

  // Trial-record bytes against a direct run_trial for the same
  // (request, seed); the replays double as the svc.exec_ms timing.
  const std::size_t checked = options.trace ? kCheckedTraced : kChecked;
  std::vector<double> exec_ms;
  std::vector<svc::TrialRecord> records;
  std::size_t compared = 0, mismatched = 0;
  for (const Request& r : requests) {
    if (!r.is_run || compared >= checked) continue;
    ++compared;
    const svc::ParsedRequest parsed = svc::parse_request(r.line);
    if (!parsed.ok() || !parsed.run) {
      ++mismatched;
      continue;
    }
    const svc::RunRequest& run = *parsed.run;
    const auto seeds = BatchRunner::trial_seeds(run.seed, run.trials);
    if (r.trial_lines.size() != run.trials) ++mismatched;
    for (std::uint32_t k = 0; k < run.trials; ++k) {
      const std::int64_t t = now_ns();
      svc::TrialRecord record =
          svc::run_trial(run, svc::ExecConfig{}, seeds[k], k);
      exec_ms.push_back(ns_to_ms(static_cast<double>(now_ns() - t)));
      record.status = "ok";
      const std::string expect = svc::encode_trial(run.id, record);
      if (k >= r.trial_lines.size() || r.trial_lines[k] != expect)
        ++mismatched;
      records.push_back(std::move(record));
    }
  }
  result.check(compared > 0 && mismatched == 0,
               "trial records of " + std::to_string(compared) +
                   " requests equal a direct run_trial byte for byte");

  std::uint64_t ok_trials = 0, trial_rounds = 0;
  for (const Request& r : requests) {
    ok_trials += r.ok_trials;
    if (r.is_run) trial_rounds += r.rounds_total;
  }
  result.fingerprint = {{"requests", requests.size()},
                        {"run_requests", runs},
                        {"ok_trials", ok_trials},
                        {"trial_rounds", trial_rounds}};
  result.notes.push_back(
      "samples: setups=" + std::to_string(setup_ns.size()) +
      " run_requests=" + std::to_string(req_ms.size()) +
      " status_requests=" + std::to_string(status_ms.size()) +
      " direct_trials=" + std::to_string(exec_ms.size()));
  char tails[160];
  std::snprintf(tails, sizeof tails,
                "status_ms raw p50 %.4f p75 %.4f p90 %.4f p99 %.4f",
                quantile(status_ms, 0.5), quantile(status_ms, 0.75),
                quantile(status_ms, 0.9), quantile(status_ms, 0.99));
  result.notes.push_back(tails);
  result.notes.push_back(
      "fail_frac: " + std::to_string(result.failed) + "/" +
      std::to_string(result.attempted));

  double loop_s = 0, loop_s_k = 0;
  for (const auto& [batch, ns] : chunks) {
    loop_s += ns / 1e9;
    loop_s_k += ns / 1e9 * probe.scale_after(batch);
  }
  std::vector<double> setup_k = setup_ns;
  for (double& v : setup_k) v *= probe.scale_after(0);
  result.notes.push_back("host probe: " +
                         std::to_string(probe.median_ns() / 1e6) +
                         " ms median over " + std::to_string(probe.count()) +
                         " passes");
  if (!options.trace) {
    const double runs_done = static_cast<double>(req_ms.size());
    const double rounds = static_cast<double>(rounds_total);
    result.add_scaled("setup_s", median(setup_k) / 1e9,
                      median(setup_ns) / 1e9, "s");
    // One job here is one run request.
    result.add_scaled("solve_s", median(req_k) / 1e3, median(req_ms) / 1e3,
                      "s");
    result.add_scaled("rounds_per_s", rounds / loop_s_k, rounds / loop_s,
                      "1/s");
    result.add_scaled("round_ms_p50", quantile(per_round_k, 0.5),
                      quantile(ms_per_round, 0.5), "ms");
    result.add_scaled("round_ms_p90", quantile(per_round_k, 0.9),
                      quantile(ms_per_round, 0.9), "ms");
    result.add("peak_rss_mb", rss, "MiB");
    result.add_scaled("req_ms_p50", quantile(req_k, 0.5),
                      quantile(req_ms, 0.5), "ms");
    result.add_scaled("req_ms_p90", quantile(req_k, 0.9),
                      quantile(req_ms, 0.9), "ms");
    result.add_scaled("req_per_s", runs_done / loop_s_k, runs_done / loop_s,
                      "1/s");
    result.add_scaled("status_ms_p50", quantile(status_k, 0.5),
                      quantile(status_ms, 0.5), "ms");
    return result;
  }

  // Per-layer: the engine spans belong to the engine workloads.
  for (const char* name :
       {"sim.round_ms", "sim.dynamics_ms", "sim.delta_ms", "sim.txsample_ms",
        "phy.resolve_ms", "sim.feedback_ms", "analysis.recorder_ms",
        "sim.unattributed_ms", "phy.field_replay_ms", "sim.engine_init_ms",
        "topo.generate_ms", "analysis.scenario_ms"})
    result.add(name, 0, "ms");
  for (const char* name : {"phy.gain_hit_ratio", "core.delivery_per_tx",
                           "core.clear_ratio", "obs.trace_overhead"})
    result.add(name, 0, "ratio");
  result.add("phy.gain_fills", 0, "count/round");
  result.add("phy.gain_evictions", 0, "count/round");
  result.add("common.pool_wait_ms", 0, "ms");
  result.add("common.pool_idle_ms", 0, "ms");
  result.add("common.pool_chunks", 0, "count/round");
  result.add("metric.moved_per_round", 0, "count");
  result.add("metric.churned_per_round", 0, "count");
  result.add("core.tx_per_slot", 0, "count");

  std::vector<std::string> request_lines;
  for (std::size_t i = 0; i < 64; ++i) request_lines.push_back(lines[i]);
  std::size_t parsed_ok = 0;
  result.add("svc.parse_us", median_call_us(30, 512, [&](int i) {
               parsed_ok += svc::parse_request(
                                request_lines[static_cast<std::size_t>(i) %
                                              request_lines.size()])
                                .ok();
             }),
             "us");
  std::size_t encoded = 0;
  result.add("svc.encode_us", median_call_us(30, 512, [&](int i) {
               encoded += svc::encode_trial(
                              "r0", records[static_cast<std::size_t>(i) %
                                            records.size()])
                              .size();
             }),
             "us");
  {
    svc::ScenarioService service(svc::ServiceConfig{.workers = 2});
    result.add("svc.status_line_us", median_call_us(30, 256, [&](int) {
                 encoded += service.status_line("s").size();
               }),
               "us");
    service.begin_shutdown();
    service.join();
  }
  result.check(parsed_ok == 30u * 512u && encoded > 0,
               "direct parse/encode/status calls succeeded");
  result.add("svc.admit_ms", median(admit_ms), "ms");
  result.add("svc.exec_ms", median(exec_ms), "ms");
  result.add("host.probe_ms", probe.median_ns() / 1e6, "ms");
  return result;
}

}  // namespace perfbench
