// The cooloptd wire protocol: newline-delimited JSON requests and
// responses (one document per line), fully specified in docs/service.md.
//
// Encoding reuses the dependency-free obs::JsonWriter, so responses carry
// the same escaping/number guarantees as every other export in the repo;
// it appends to a std::string, never through an iostream.
// Decoding is a small *strict* recursive-descent parser: full RFC 8259
// grammar, duplicate object keys rejected, bounded nesting depth, and —
// at the protocol layer — unknown request fields rejected by name, so a
// typoed field fails loudly instead of silently planning with a default.
//
// The encode_* functions produce the exact bytes the service writes. The
// determinism suite and bench/perf_service call them on results computed
// by direct in-process engine calls and assert byte equality with what
// came back over the socket — the service adds nothing and loses nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "control/eval_engine.h"
#include "control/fault_campaign.h"
#include "core/engine.h"
#include "fleet/fleet_engine.h"
#include "obs/span.h"
#include "obs/telemetry.h"

namespace coolopt::service {

// --- JSON document model ---

/// One parsed JSON value. Object member order is preserved as parsed.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed accessors; only valid for the matching kind.
  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Strict parse of exactly one JSON document (trailing whitespace allowed,
/// trailing garbage is an error). Returns false and fills `error` on any
/// violation: syntax, duplicate keys, nesting beyond kMaxJsonDepth.
bool parse_json(std::string_view text, JsonValue& out, std::string& error);

inline constexpr size_t kMaxJsonDepth = 32;

// --- protocol: requests ---

enum class Verb {
  kPing,
  kPlan,
  kFleetplan,
  kMeasure,
  kSweep,
  kInject,
  kSubscribe,
  kHealth,
};
enum class Priority { kHigh, kNormal, kLow };

inline constexpr size_t kVerbCount = static_cast<size_t>(Verb::kHealth) + 1;
inline constexpr size_t kPriorityCount = static_cast<size_t>(Priority::kLow) + 1;

const char* to_string(Verb verb);
const char* to_string(Priority priority);

/// How a verb takes one of its request fields (docs/service.md's
/// "Required" column).
enum class Presence {
  kRequired,  ///< must be sent; a verb with several takes exactly one of them
  kDefault,   ///< optional; absence means the default, always encoded
  kOptional,  ///< optional; encoded only when set (non-empty, engaged, non-0)
};

struct RequestField {
  const char* name;
  Presence presence;
};

/// The fields `verb` takes besides id/verb/priority, in the order
/// parse_request checks them (and encode_request writes them).
std::vector<RequestField> request_fields(Verb verb);

/// One decoded request line. Defaults are what an omitted optional field
/// means (docs/service.md lists required vs optional per verb).
struct WireRequest {
  uint64_t id = 0;
  Verb verb = Verb::kPing;
  Priority priority = Priority::kNormal;

  // plan / fleetplan / measure
  int scenario = 8;                       ///< Fig. 4 number, 1-8
  double load_pct = 0.0;                  ///< percent of fitted capacity
  std::optional<double> load_files_s;     ///< plan/fleetplan: absolute wins
  std::vector<size_t> quarantined;        ///< plan only

  // fleetplan: quarantines addressed as {"shard":s,"machine":m} objects
  std::vector<fleet::ShardMachine> fleet_quarantined;

  // fleetplan: shards declared unavailable by the caller. Their healthy
  // share of the load is re-water-filled across the survivors.
  std::vector<size_t> down_shards;

  // sweep
  std::vector<int> scenarios;             ///< empty == all eight
  std::vector<double> load_pcts;          ///< empty == the paper's axis

  // inject
  std::string fault = "fan-failure";
  std::string defense = "supervisor";
  double duration_s = 3600.0;
  double control_period_s = 30.0;

  // plan / fleetplan: client-chosen trace id. Presence turns tracing on —
  // the response then carries a "trace" block with timed spans; absence
  // keeps the historical response bytes exactly.
  std::optional<uint64_t> trace_id;

  // plan / fleetplan: relative deadline in milliseconds, measured from
  // admission. Work still queued when the deadline passes is dropped by
  // dispatch with the `deadline_exceeded` shed code instead of burning a
  // worker on an answer nobody is waiting for. Absence keeps the
  // historical response bytes exactly; presence echoes the deadline.
  std::optional<uint64_t> deadline_ms;

  // subscribe
  uint64_t interval_ms = kDefaultTickIntervalMs;  ///< clamped by the server
  uint64_t ticks = 0;                             ///< 0 == unbounded stream

  static constexpr uint64_t kDefaultTickIntervalMs = 1000;
};

/// Server-side clamp bounds for the subscribe interval. The floor tracks
/// the reader-thread poll granularity (ticks are flushed to a session by
/// its own reader, every poll iteration); the ceiling keeps an idle
/// subscription from pinning a silent connection open for more than a
/// minute between proofs of life.
inline constexpr uint64_t kMinTickIntervalMs = 100;
inline constexpr uint64_t kMaxTickIntervalMs = 60000;

/// Ceiling on inject's simulated `duration_s`: one simulated day, 24x the
/// default. A campaign holds a pool worker for time linear in its simulated
/// length, so an unbounded value could pin a worker (and a drain) for days.
inline constexpr double kMaxInjectDurationS = 86400.0;

/// Hard ceiling on one request line (terminator included). A connection
/// that exceeds it gets a `bad_request` error response and is closed —
/// the server never buffers an unbounded frame from a hostile or broken
/// peer (docs/service.md "Framing").
inline constexpr size_t kMaxLineBytes = 1 << 20;

/// Decodes one request line. On failure returns false, fills `error` with
/// a human-readable reason, and still recovers the request `id` when the
/// line was well-formed JSON (so the error response can be correlated).
bool parse_request(std::string_view line, WireRequest& out, std::string& error);

/// Encodes `request` as one protocol line (no trailing newline) — what
/// `cooloptctl client`, the tests and the bench send.
std::string encode_request(const WireRequest& request);

// --- protocol: responses (exact service bytes, no trailing newline) ---

/// Machine-readable error/shed codes (docs/service.md "Error codes").
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrInvalidArgument = "invalid_argument";
inline constexpr const char* kErrUnsupportedVerb = "unsupported_verb";
inline constexpr const char* kErrShedQueueFull = "shed_queue_full";
inline constexpr const char* kErrShedPriority = "shed_priority";
inline constexpr const char* kErrShedDraining = "shed_draining";
inline constexpr const char* kErrDeadlineExceeded = "deadline_exceeded";
inline constexpr const char* kErrTooManyConnections = "too_many_connections";
inline constexpr const char* kErrInternal = "internal_error";

/// `ok:false` envelope. `queue_depth` is attached for the shed_* codes
/// (pass SIZE_MAX to omit it).
std::string encode_error(uint64_t id, Verb verb, std::string_view code,
                         std::string_view message,
                         size_t queue_depth = static_cast<size_t>(-1));

/// Deterministic server facts: machine count, fitted capacity, queue
/// capacity, worker count, whether a simulator backs measure/sweep/inject.
struct ServerInfo {
  size_t machines = 0;
  double capacity_files_s = 0.0;
  size_t queue_capacity = 0;
  size_t workers = 0;
  bool sim_backed = false;
  /// Room shards behind the fleetplan verb; 0 == monolithic server (the
  /// ping response omits the field and the verb, keeping old bytes).
  size_t fleet_shards = 0;
};

/// What serving `verb` takes that a server with `info`'s backends lacks
/// (the tail of its unsupported_verb message), or nullptr when it serves it.
const char* missing_backend(Verb verb, const ServerInfo& info);

/// Whether the connection's reader thread answers `verb` itself instead of
/// admitting it to the queue (health, subscribe).
bool answered_on_reader(Verb verb);

/// Whether a client may safely retry `verb` (everything but inject and
/// subscribe, whose repeats run another campaign or open another stream).
bool idempotent(Verb verb);

std::string encode_ping_response(uint64_t id, const ServerInfo& info);
/// Plan responses: `spans` non-null appends a "trace" block (trace_id +
/// every recorded span) after "result"; null keeps the historical bytes.
/// `deadline_ms` echoes the request's relative deadline after the result
/// (and trace, when present); absence keeps the historical bytes.
/// The `out` form appends the response to `out` (the service encodes into
/// a per-worker buffer it reuses across requests); the string form returns
/// the same bytes.
void encode_plan_response(std::string& out, uint64_t id,
                          const core::PlanResult& result,
                          const obs::SpanContext* spans = nullptr,
                          std::optional<uint64_t> deadline_ms = std::nullopt);
std::string encode_plan_response(
    uint64_t id, const core::PlanResult& result,
    const obs::SpanContext* spans = nullptr,
    std::optional<uint64_t> deadline_ms = std::nullopt);
/// Fleet solve: global split + per-shard plans, each with attribution.
/// Degraded solves additionally carry per-shard "status" entries plus the
/// "shards_down"/"redistributed_load" accounting; fully healthy solves
/// keep their exact historical bytes. Same two forms as plan.
void encode_fleetplan_response(
    std::string& out, uint64_t id, const fleet::FleetPlanResult& result,
    const obs::SpanContext* spans = nullptr,
    std::optional<uint64_t> deadline_ms = std::nullopt);
std::string encode_fleetplan_response(
    uint64_t id, const fleet::FleetPlanResult& result,
    const obs::SpanContext* spans = nullptr,
    std::optional<uint64_t> deadline_ms = std::nullopt);
std::string encode_measure_response(uint64_t id,
                                    const control::EvalPoint& point);
std::string encode_sweep_response(uint64_t id,
                                  std::span<const control::EvalPoint> points);
std::string encode_inject_response(uint64_t id,
                                   const control::FaultCampaignResult& result);
/// Subscribe ack: echoes the (clamped) interval and the tick budget the
/// server accepted (ticks == 0 means the stream runs until disconnect or
/// drain).
std::string encode_subscribe_response(uint64_t id, uint64_t interval_ms,
                                      uint64_t ticks);

/// Liveness/readiness snapshot served directly on the reader thread (never
/// queued), so probes keep answering even when the admission queue is
/// saturated. `shard_status` entries are the statuses observed on the most
/// recent fleetplan solve ("ok" until one runs); empty == monolithic
/// server (the field is omitted).
struct HealthInfo {
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  size_t workers = 0;
  bool draining = false;
  std::vector<std::string> shard_status;
};

std::string encode_health_response(uint64_t id, const HealthInfo& health);

// --- protocol: telemetry ticks (pushed lines, not responses) ---

/// One streamed telemetry line: `{"verb":"telemetry","subscription":...}`.
/// Carries only the metrics that changed since the subscriber's previous
/// tick (`delta`); the first tick of a subscription is a full baseline by
/// construction (delta against an empty snapshot). `closing` marks the
/// final best-effort tick written during a server drain.
std::string encode_telemetry_tick(uint64_t subscription_id, uint64_t tick,
                                  const obs::MetricsDelta& delta,
                                  bool closing = false);

}  // namespace coolopt::service
