// Request parsing and response encoding for the scenario service.
//
// Wire protocol (docs/SERVICE.md): one JSON object per line. Two request
// types exist — `run` (execute a declarative scenario for K trials) and
// `status` (live service snapshot). The schema is STRICT: unknown fields,
// wrong types, and out-of-range values all map to a structured error code,
// never to an abort, and never to a silently-adjusted request — a typo'd
// field must not select a different experiment (the same contract
// src/common/env.h enforces for knobs).
//
// Validation happens in two tiers: parse_request() owns everything that can
// be decided from the line alone (syntax, schema, static ranges); admission
// limits that depend on service state or configuration (queue depth, trial
// caps, shutdown) live in ScenarioService and reuse the same error-code
// enum, so every rejection a client can observe is one closed vocabulary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.h"

namespace udwn::svc {

/// Closed vocabulary of rejection reasons, sent as `"error":"<code>"`.
enum class ErrorCode : std::uint8_t {
  kParseError = 0,       // line is not valid JSON
  kNotObject,            // valid JSON, but not an object
  kMissingField,         // required field absent
  kBadType,              // field present with the wrong JSON type
  kUnknownField,         // field not in the schema (strict mode)
  kBadValue,             // field parsed but out of its static range
  kLineTooLong,          // request line exceeded the byte limit
  kTruncated,            // input ended mid-line (no trailing newline)
  kQueueFull,            // admission queue at capacity (backpressure)
  kTrialsExceeded,       // trials > service per-request cap
  kNodesExceeded,        // topology n > service cap
  kShuttingDown,         // daemon is draining; request not admitted
  kFaultInjectionOff,    // inject field used without --enable-test-faults
  kInternal,             // service-side failure outside any trial
};

[[nodiscard]] const char* to_string(ErrorCode code) noexcept;

/// One structured rejection: code + human detail, both echoed to the client.
struct RequestError {
  ErrorCode code = ErrorCode::kInternal;
  std::string detail;
};

enum class ProtocolKind : std::uint8_t {
  kLocalBcast = 0,  // LocalBcastProtocol, TryAdjust::standard(n, 1)
  kBcast,           // BcastProtocol dynamic mode, node 0 is the source
  kDecay,           // DecayLocalBcastProtocol, cycle = log2(n)+2
  kAloha,           // AlohaLocalBcastProtocol, p = 1/16
};

enum class TopologyKind : std::uint8_t {
  kUniformSquare = 0,  // n points in [0, extent]^2
  kLattice,            // rows x cols grid at `spacing`
  kClusterChain,       // clusters x per_cluster chain (broadcast shapes)
};

/// Reception model, mirroring analysis/scenario.h ModelKind by name.
enum class ModelName : std::uint8_t {
  kSinr = 0,
  kUdg,
  kQudg,
  kProtocol,
  kSuccClear,
};

/// Deliberate per-trial misbehavior for soak/CI coverage; honored only when
/// ServiceConfig::allow_fault_injection is set (tools/udwnd
/// --enable-test-faults), rejected with kFaultInjectionOff otherwise.
enum class FaultInjection : std::uint8_t {
  kNone = 0,
  kThrow,     // trial throws std::runtime_error mid-run
  kContract,  // trial violates a UDWN_EXPECT contract
  kHang,      // trial never converges (exhausts its round budget)
};

struct TopologySpec {
  TopologyKind kind = TopologyKind::kUniformSquare;
  std::size_t n = 0;          // derived for lattice/cluster_chain
  double extent = 4.0;        // uniform_square
  std::size_t rows = 0;       // lattice
  std::size_t cols = 0;       // lattice
  double spacing = 0.6;       // lattice / cluster chain
  std::size_t clusters = 0;   // cluster_chain
  std::size_t per_cluster = 0;
  double cluster_radius = 0.05;
};

struct DynamicsSpec {
  double churn_rate = 0;       // arrival == departure rate per round
  double mobility_speed = 0;   // waypoint speed, distance per round
};

/// A fully validated `run` request.
struct RunRequest {
  std::string id;  // client correlation tag, echoed on every response
  ProtocolKind protocol = ProtocolKind::kLocalBcast;
  ModelName model = ModelName::kSinr;
  double epsilon = 0.3;
  double zeta = 3.0;
  TopologySpec topology;
  DynamicsSpec dynamics;
  std::uint32_t trials = 1;
  std::uint64_t seed = 1;
  /// Per-trial round budget; 0 = take the service default. Enforced through
  /// BatchConfig::max_rounds (run_checked), so exceeding it is a structured
  /// `timeout` outcome, never a hang.
  std::uint64_t max_rounds = 0;
  /// Per-trial wall-clock budget in ms; 0 = none.
  std::uint64_t deadline_ms = 0;
  FaultInjection inject = FaultInjection::kNone;
};

struct StatusRequest {
  std::string id;
};

/// Parse outcome: exactly one of the three optionals is set on success;
/// `error` is set on failure (with `id` recovered from the line when the
/// object parsed far enough to contain one, so rejections stay correlatable).
struct ParsedRequest {
  std::string id;
  std::optional<RunRequest> run;
  std::optional<StatusRequest> status;
  std::optional<RequestError> error;
  [[nodiscard]] bool ok() const { return !error.has_value(); }
};

/// Parse and validate one request line (tier 1: everything decidable from
/// the bytes alone). Never throws, never aborts.
[[nodiscard]] ParsedRequest parse_request(std::string_view line);

// --- Response encoding ------------------------------------------------------
//
// Every response is one JSON object per line with `"id"` and `"event"`
// first. Encoders are plain string builders (not Json trees) so the
// per-trial record bytes are a deterministic function of the record fields
// — the determinism audit's svc group hashes them across thread counts.

/// Per-trial outcome record, the unit of the byte-identical guarantee.
struct TrialRecord {
  std::uint32_t trial = 0;
  std::uint64_t seed = 0;
  /// "ok" | "failed" | "timeout" | "cancelled" (sim/batch.h TrialStatus).
  std::string status;
  std::uint64_t rounds = 0;      // rounds executed (ok trials)
  std::uint64_t completed = 0;   // nodes whose protocol finished
  std::uint64_t delivered = 0;   // nodes informed / done predicate count
  bool all_done = false;
  std::string error;             // diagnostic for non-ok trials
};

[[nodiscard]] std::string encode_accepted(std::string_view id,
                                          std::size_t queue_depth);
[[nodiscard]] std::string encode_rejected(std::string_view id,
                                          const RequestError& error);
[[nodiscard]] std::string encode_progress(std::string_view id,
                                          std::uint32_t done,
                                          std::uint32_t trials);
[[nodiscard]] std::string encode_trial(std::string_view id,
                                       const TrialRecord& record);

/// Terminal summary for a run request.
struct RunSummary {
  std::uint32_t ok = 0;
  std::uint32_t failed = 0;
  std::uint32_t timeout = 0;
  std::uint32_t cancelled = 0;
  std::uint64_t rounds_total = 0;  // across ok trials
};
[[nodiscard]] std::string encode_summary(std::string_view id,
                                         const RunSummary& summary);

}  // namespace udwn::svc
