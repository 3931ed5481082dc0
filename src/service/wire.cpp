#include "service/wire.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <variant>

#include "obs/json_writer.h"
#include "util/jsonio.h"
#include "util/strings.h"

namespace coolopt::service {

// --- JsonValue ---

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

// --- strict parser ---

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string& error) {
    skip_ws();
    if (!parse_value(out, 0)) {
      error = error_.empty() ? "malformed JSON" : error_;
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error = util::strf("trailing garbage at offset %zu", pos_);
      return false;
    }
    return true;
  }

 private:
  bool fail(std::string message) {
    if (error_.empty()) {
      error_ = util::strf("%s at offset %zu", message.c_str(), pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, size_t depth) {
    if (depth > kMaxJsonDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.kind_ = JsonValue::Kind::kString;
        return parse_string(out.string_);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out.kind_ = JsonValue::Kind::kNull;
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, size_t depth) {
    out.kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parse_string(key)) return false;
      if (out.find(key) != nullptr) {
        return fail(util::strf("duplicate key \"%s\"", key.c_str()));
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members_.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out, size_t depth) {
    out.kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.items_.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs are accepted as
          // two escapes and encoded individually — fine for the ASCII
          // protocol fields this parser actually carries).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const size_t start = pos_;
    if (!util::json_scan_number(text_, pos_)) return fail("bad number");
    const std::string token(text_.substr(start, pos_ - start));
    out.kind_ = JsonValue::Kind::kNumber;
    out.number_ = std::strtod(token.c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  return JsonParser(text).parse(out, error);
}

// --- the protocol table ---
//
// One row per verb and one per request field. Parsing, encoding, the verb
// names, the unknown-field check, the ping `verbs` list and the server's
// availability gate all read these rows, and a service test checks the
// field tables of docs/service.md against them.

namespace {

/// The WireRequest member a field decodes into. Its type fixes the JSON
/// kind: a non-negative integer (uint64_t, int, size_t), a finite number
/// (double), a string, one of an enum's names, an array of those, or a
/// {"shard","machine"} object.
template <typename T>
using Member = T WireRequest::*;
using Target = std::variant<
    Member<uint64_t>, Member<int>, Member<double>, Member<std::string>,
    Member<Verb>, Member<Priority>, Member<std::optional<uint64_t>>,
    Member<std::optional<double>>, Member<std::vector<size_t>>,
    Member<std::vector<int>>, Member<std::vector<double>>,
    Member<std::vector<fleet::ShardMachine>>>;

struct Field {
  const char* name;
  Target target;
  /// The error for a malformed integer, string or array is `"name" must be
  /// <must>`; a number's is "a finite number", an enum's lists its names.
  const char* must = nullptr;
  /// Arrays: a malformed entry is `"name" entries must be <entries>`, or
  /// the entry's own error when null.
  const char* entries = nullptr;
  bool positive = false;  ///< values (array entries) must be > 0 ...
  double max = std::numeric_limits<double>::infinity();  ///< ... and <= max
  bool non_empty = false;  ///< arrays: at least one entry
};

constexpr Field kId{"id", &WireRequest::id, "a non-negative integer"};
constexpr Field kVerbField{"verb", &WireRequest::verb};
constexpr Field kPriority{"priority", &WireRequest::priority};
/// Every request carries these, ahead of its verb's fields.
constexpr const Field* kEnvelope[] = {&kId, &kVerbField, &kPriority};

constexpr Field kScenario{.name = "scenario", .target = &WireRequest::scenario,
                          .must = "a Fig. 4 number in 1..8",
                          .positive = true, .max = 8};
constexpr Field kLoadPct{"load_pct", &WireRequest::load_pct};
constexpr Field kLoad{"load", &WireRequest::load_files_s};
constexpr Field kQuarantined{"quarantined", &WireRequest::quarantined,
                             "an array of machine indices",
                             "non-negative integers"};
constexpr Field kShardQuarantined{
    kQuarantined.name, &WireRequest::fleet_quarantined,
    "an array of {\"shard\",\"machine\"} objects",
    "objects with exactly non-negative integer \"shard\" and \"machine\""};
constexpr Field kDownShards{"down_shards", &WireRequest::down_shards,
                            "an array of shard indices",
                            "non-negative integers"};
constexpr Field kTraceId{"trace_id", &WireRequest::trace_id,
                         "a non-negative integer"};
constexpr Field kDeadline{.name = "deadline_ms",
                          .target = &WireRequest::deadline_ms,
                          .must = "a positive integer", .positive = true};
constexpr Field kScenarios{.name = "scenarios",
                           .target = &WireRequest::scenarios,
                           .must = "a non-empty array of Fig. 4 numbers",
                           .entries = "Fig. 4 numbers in 1..8",
                           .positive = true, .max = 8, .non_empty = true};
constexpr Field kLoadPcts{.name = "load_pcts",
                          .target = &WireRequest::load_pcts,
                          .must = "a non-empty array of numbers",
                          .non_empty = true};
constexpr Field kFault{"fault", &WireRequest::fault, "a scenario name string"};
constexpr Field kDefense{"defense", &WireRequest::defense,
                         "none|watchdog|supervisor"};
constexpr Field kDuration{.name = "duration_s",
                          .target = &WireRequest::duration_s,
                          .positive = true, .max = kMaxInjectDurationS};
constexpr Field kControlPeriod{.name = "control_period_s",
                               .target = &WireRequest::control_period_s,
                               .positive = true};
constexpr Field kInterval{.name = "interval_ms",
                          .target = &WireRequest::interval_ms,
                          .must = "a positive integer", .positive = true};
constexpr Field kTicks{"ticks", &WireRequest::ticks,
                       "a non-negative integer (0 = unbounded)"};

/// A field as one verb takes it. Fields are checked in this order, so the
/// first error a line reports follows it.
struct Use {
  const Field* field;
  Presence presence;
  std::optional<double> preset = std::nullopt;  ///< this verb's default
};

using P = Presence;
constexpr Use kPlanFields[] = {
    {&kScenario, P::kDefault}, {&kLoadPct, P::kRequired},
    {&kLoad, P::kRequired},    {&kQuarantined, P::kOptional},
    {&kTraceId, P::kOptional}, {&kDeadline, P::kOptional}};
constexpr Use kFleetplanFields[] = {
    {&kScenario, P::kDefault},          {&kLoadPct, P::kRequired},
    {&kLoad, P::kRequired},             {&kShardQuarantined, P::kOptional},
    {&kDownShards, P::kOptional},       {&kTraceId, P::kOptional},
    {&kDeadline, P::kOptional}};
constexpr Use kMeasureFields[] = {{&kScenario, P::kDefault},
                                  {&kLoadPct, P::kRequired}};
constexpr Use kSweepFields[] = {{&kScenarios, P::kOptional},
                                {&kLoadPcts, P::kOptional}};
constexpr Use kInjectFields[] = {
    {&kFault, P::kDefault},         {&kDefense, P::kDefault},
    {&kLoadPct, P::kDefault, 60.0}, {&kDuration, P::kDefault},
    {&kControlPeriod, P::kDefault}};
constexpr Use kSubscribeFields[] = {{&kInterval, P::kDefault},
                                    {&kTicks, P::kOptional}};

enum class Backend { kAny, kSim, kFleet };

struct VerbRow {
  const char* name;
  Backend backend;  ///< what the server needs to serve the verb
  bool on_reader;   ///< answered on the reader thread, never queued
  bool idempotent;  ///< safe for clients to retry
  std::span<const Use> fields;
};

// Indexed by Verb; the ping `verbs` list keeps this order.
constexpr VerbRow kVerbs[] = {
    // name       backend          reader idempotent fields
    {"ping",      Backend::kAny,   false, true,  {}},
    {"plan",      Backend::kAny,   false, true,  kPlanFields},
    {"fleetplan", Backend::kFleet, false, true,  kFleetplanFields},
    {"measure",   Backend::kSim,   false, true,  kMeasureFields},
    {"sweep",     Backend::kSim,   false, true,  kSweepFields},
    {"inject",    Backend::kSim,   false, false, kInjectFields},
    {"subscribe", Backend::kAny,   true,  false, kSubscribeFields},
    {"health",    Backend::kAny,   true,  true,  {}},
};
static_assert(std::size(kVerbs) == kVerbCount);

constexpr const char* kPriorities[] = {"high", "normal", "low"};
static_assert(std::size(kPriorities) == kPriorityCount);

const VerbRow& row_of(Verb verb) { return kVerbs[static_cast<size_t>(verb)]; }

}  // namespace

const char* to_string(Verb verb) {
  const auto i = static_cast<size_t>(verb);
  return i < std::size(kVerbs) ? kVerbs[i].name : "?";
}

const char* to_string(Priority priority) {
  const auto i = static_cast<size_t>(priority);
  return i < std::size(kPriorities) ? kPriorities[i] : "?";
}

std::vector<RequestField> request_fields(Verb verb) {
  std::vector<RequestField> out;
  for (const Use& use : row_of(verb).fields) {
    out.push_back({use.field->name, use.presence});
  }
  return out;
}

const char* missing_backend(Verb verb, const ServerInfo& info) {
  const Backend backend = row_of(verb).backend;
  if (backend == Backend::kSim && !info.sim_backed) {
    return "a simulator-backed server (started without --model)";
  }
  if (backend == Backend::kFleet && info.fleet_shards == 0) {
    return "a fleet topology (started without --fleet-shards)";
  }
  return nullptr;
}

bool answered_on_reader(Verb verb) { return row_of(verb).on_reader; }

bool idempotent(Verb verb) { return row_of(verb).idempotent; }

// --- decoding ---

namespace {

bool fail(std::string& error, const Field& field, const char* must) {
  error = util::strf("\"%s\" must be %s", field.name, must);
  return false;
}

/// Non-negative integral number (ids, scenario numbers, machine indices).
bool as_uint(const JsonValue& v, uint64_t& out) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  if (d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15) return false;
  out = static_cast<uint64_t>(d);
  return true;
}

template <typename T>
  requires std::is_integral_v<T>
bool read(const JsonValue& v, const Field& field, T& out, std::string& error) {
  uint64_t n = 0;
  if (!as_uint(v, n) || (field.positive && n == 0) ||
      static_cast<double>(n) > field.max) {
    return fail(error, field, field.must);
  }
  out = static_cast<T>(n);
  return true;
}

bool read(const JsonValue& v, const Field& field, double& out,
          std::string& error) {
  if (!v.is_number() || !std::isfinite(v.as_number())) {
    return fail(error, field, "a finite number");
  }
  out = v.as_number();
  if (field.positive && out <= 0.0) return fail(error, field, "positive");
  if (out > field.max) {
    return fail(error, field, util::strf("at most %g", field.max).c_str());
  }
  return true;
}

bool read(const JsonValue& v, const Field& field, std::string& out,
          std::string& error) {
  if (!v.is_string()) return fail(error, field, field.must);
  out = v.as_string();
  return true;
}

template <typename E>
  requires std::is_enum_v<E>
bool read(const JsonValue& v, const Field& field, E& out, std::string& error) {
  constexpr size_t n = std::is_same_v<E, Verb> ? kVerbCount : kPriorityCount;
  for (size_t i = 0; i < n; ++i) {
    if (v.is_string() && v.as_string() == to_string(static_cast<E>(i))) {
      out = static_cast<E>(i);
      return true;
    }
  }
  std::string names = "one of ";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) names += '|';
    names += to_string(static_cast<E>(i));
  }
  return fail(error, field, names.c_str());
}

bool read(const JsonValue& v, const Field& field, fleet::ShardMachine& out,
          std::string& error) {
  const JsonValue* shard = v.find("shard");
  const JsonValue* machine = v.find("machine");
  if (!v.is_object() || v.members().size() != 2 || shard == nullptr ||
      machine == nullptr || !as_uint(*shard, out.shard) ||
      !as_uint(*machine, out.machine)) {
    return fail(error, field, field.entries);
  }
  return true;
}

template <typename T>
bool read(const JsonValue& v, const Field& field, std::optional<T>& out,
          std::string& error) {
  return read(v, field, out.emplace(), error);
}

template <typename T>
bool read(const JsonValue& v, const Field& field, std::vector<T>& out,
          std::string& error) {
  if (!v.is_array() || (field.non_empty && v.items().empty())) {
    return fail(error, field, field.must);
  }
  for (const JsonValue& item : v.items()) {
    if (!read(item, field, out.emplace_back(), error)) {
      if (field.entries != nullptr) {
        error = util::strf("\"%s\" entries must be %s", field.name,
                           field.entries);
      }
      return false;
    }
  }
  return true;
}

bool read_field(const JsonValue& v, const Field& field, WireRequest& out,
                std::string& error) {
  return std::visit(
      [&](auto member) { return read(v, field, out.*member, error); },
      field.target);
}

bool takes(const VerbRow& row, std::string_view key) {
  const auto named = [&](const Field* f) { return key == f->name; };
  return std::ranges::any_of(kEnvelope, named) ||
         std::ranges::any_of(row.fields,
                             [&](const Use& u) { return named(u.field); });
}

/// Exactly one of a verb's required fields must be present.
bool check_required(const JsonValue& doc, const VerbRow& row,
                    std::string& error) {
  size_t present = 0;
  for (const Use& use : row.fields) {
    present += use.presence == Presence::kRequired &&
               doc.find(use.field->name) != nullptr;
  }
  if (present == 1) return true;
  std::string names;
  for (const Use& use : row.fields) {
    if (use.presence != Presence::kRequired) continue;
    names += names.empty() ? "\"" : " or \"";
    names += use.field->name;
    names += '"';
  }
  error = util::strf(present == 0 ? "%s needs %s" : "%s takes %s, not both",
                     row.name, names.c_str());
  return false;
}

}  // namespace

bool parse_request(std::string_view line, WireRequest& out, std::string& error) {
  out = WireRequest{};
  JsonValue doc;
  if (!parse_json(line, doc, error)) return false;
  if (!doc.is_object()) {
    error = "request must be a JSON object";
    return false;
  }
  // Recover the id first so even a rejected request gets a correlated
  // error response.
  const JsonValue* id = doc.find(kId.name);
  if (id != nullptr && !read_field(*id, kId, out, error)) return false;
  static const JsonValue kAbsent;  // a missing verb reads as null
  const JsonValue* verb = doc.find(kVerbField.name);
  if (!read_field(verb != nullptr ? *verb : kAbsent, kVerbField, out, error)) {
    return false;
  }
  const VerbRow& row = row_of(out.verb);
  for (const auto& member : doc.members()) {
    if (!takes(row, member.first)) {
      error = util::strf("unknown field \"%s\" for verb %s",
                         member.first.c_str(), row.name);
      return false;
    }
  }
  const JsonValue* priority = doc.find(kPriority.name);
  if (priority != nullptr && !read_field(*priority, kPriority, out, error)) {
    return false;
  }
  bool required_checked = false;
  for (const Use& use : row.fields) {
    if (use.presence == Presence::kRequired && !required_checked) {
      required_checked = true;
      if (!check_required(doc, row, error)) return false;
    }
    if (const JsonValue* v = doc.find(use.field->name)) {
      if (!read_field(*v, *use.field, out, error)) return false;
    } else if (use.preset.has_value()) {
      out.*std::get<double WireRequest::*>(use.field->target) = *use.preset;
    }
  }
  return true;
}

// --- encoding ---

namespace {

/// Shared response envelope: {"id":..,"verb":..,"ok":..  ... }
void begin_response(obs::JsonWriter& w, uint64_t id, Verb verb, bool ok) {
  w.begin_object();
  w.kv("id", static_cast<uint64_t>(id));
  w.kv("verb", to_string(verb));
  w.kv("ok", ok);
}

void write_plan_object(obs::JsonWriter& w, const core::Plan& plan) {
  w.begin_object();
  w.kv("scenario", static_cast<uint64_t>(plan.scenario.number));
  w.kv("load", plan.load);
  w.kv("closed_form_pure", plan.closed_form_pure);
  w.kv("t_ac_c", plan.allocation.t_ac);
  w.kv("it_power_w", plan.allocation.it_power_w);
  w.kv("cooling_power_w", plan.allocation.cooling_power_w);
  w.kv("total_power_w", plan.allocation.total_power_w);
  w.kv("machines_on", static_cast<uint64_t>(plan.allocation.count_on()));
  w.key("on");
  w.array(plan.allocation.on);
  w.key("loads");
  w.array(plan.allocation.loads);
  w.end_object();
}

/// `"trace":{"trace_id":N,"spans":[...]}` — appended after "result" on
/// traced responses only, so untraced responses keep their exact bytes.
/// Spans serialize in record order (parents before children by
/// construction); `shard` appears only on spans carrying a shard detail.
void write_trace_object(obs::JsonWriter& w, const obs::SpanContext& spans) {
  w.key("trace");
  w.begin_object();
  w.kv("trace_id", spans.trace_id());
  w.key("spans");
  w.begin_array();
  for (const obs::SpanRecord& r : spans.records()) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("parent", static_cast<double>(r.parent));
    if (r.detail >= 0) w.kv("shard", static_cast<uint64_t>(r.detail));
    w.kv("start_us", r.start_us);
    w.kv("dur_us", r.dur_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_point_object(obs::JsonWriter& w, const control::EvalPoint& point) {
  w.begin_object();
  w.kv("scenario", static_cast<uint64_t>(point.scenario.number));
  w.kv("load_pct", point.load_pct);
  w.kv("feasible", point.feasible);
  if (point.feasible) {
    w.key("measurement");
    w.begin_object();
    w.kv("it_power_w", point.measurement.it_power_w);
    w.kv("crac_power_w", point.measurement.crac_power_w);
    w.kv("total_power_w", point.measurement.total_power_w);
    w.kv("peak_cpu_temp_c", point.measurement.peak_cpu_temp_c);
    w.kv("t_ac_achieved_c", point.measurement.t_ac_achieved_c);
    w.kv("t_sp_c", point.measurement.t_sp_c);
    w.kv("throughput_files_s", point.measurement.throughput_files_s);
    w.kv("machines_on", static_cast<uint64_t>(point.measurement.machines_on));
    w.kv("temp_violation", point.measurement.temp_violation);
    w.end_object();
    w.key("plan");
    write_plan_object(w, point.plan);
  }
  w.end_object();
}

}  // namespace

std::string encode_error(uint64_t id, Verb verb, std::string_view code,
                         std::string_view message, size_t queue_depth) {
  std::string out;
  obs::JsonWriter w(out);
  begin_response(w, id, verb, false);
  w.kv("error_code", code);
  w.kv("error", message);
  if (queue_depth != static_cast<size_t>(-1)) {
    w.kv("queue_depth", static_cast<uint64_t>(queue_depth));
  }
  w.end_object();
  return out;
}

std::string encode_ping_response(uint64_t id, const ServerInfo& info) {
  std::string out;
  obs::JsonWriter w(out);
  begin_response(w, id, Verb::kPing, true);
  w.key("result");
  w.begin_object();
  w.kv("machines", static_cast<uint64_t>(info.machines));
  w.kv("capacity_files_s", info.capacity_files_s);
  w.kv("queue_capacity", static_cast<uint64_t>(info.queue_capacity));
  w.kv("workers", static_cast<uint64_t>(info.workers));
  w.kv("sim_backed", info.sim_backed);
  if (info.fleet_shards > 0) {
    w.kv("fleet_shards", static_cast<uint64_t>(info.fleet_shards));
  }
  w.key("verbs");
  w.begin_array();
  for (size_t i = 0; i < kVerbCount; ++i) {
    const Verb verb = static_cast<Verb>(i);
    if (missing_backend(verb, info) == nullptr) w.value(to_string(verb));
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return out;
}

void encode_plan_response(std::string& out, uint64_t id,
                          const core::PlanResult& result,
                          const obs::SpanContext* spans,
                          std::optional<uint64_t> deadline_ms) {
  if (!result.error.empty()) {
    out += encode_error(id, Verb::kPlan, kErrInvalidArgument, result.error);
    return;
  }
  obs::JsonWriter w(out);
  begin_response(w, id, Verb::kPlan, true);
  w.key("result");
  w.begin_object();
  // Shard attribution only for fleet-fanned requests, so monolithic plan
  // responses keep their exact historical bytes.
  if (result.shard >= 0) {
    w.kv("shard", static_cast<uint64_t>(result.shard));
  }
  w.kv("feasible", result.feasible());
  w.kv("shed_load", result.shed_load);
  if (result.shed_load > 0.0) {
    w.key("shed_priority");
    w.begin_array();
    for (const size_t index : result.shed_priority) {
      w.value(static_cast<uint64_t>(index));
    }
    w.end_array();
  }
  w.key("plan");
  if (result.plan.has_value()) {
    write_plan_object(w, *result.plan);
  } else {
    w.value_null();
  }
  w.end_object();
  if (spans != nullptr) write_trace_object(w, *spans);
  if (deadline_ms.has_value()) w.kv("deadline_ms", *deadline_ms);
  w.end_object();
}

std::string encode_plan_response(uint64_t id, const core::PlanResult& result,
                                 const obs::SpanContext* spans,
                                 std::optional<uint64_t> deadline_ms) {
  std::string out;
  encode_plan_response(out, id, result, spans, deadline_ms);
  return out;
}

void encode_fleetplan_response(std::string& out, uint64_t id,
                               const fleet::FleetPlanResult& result,
                               const obs::SpanContext* spans,
                               std::optional<uint64_t> deadline_ms) {
  obs::JsonWriter w(out);
  begin_response(w, id, Verb::kFleetplan, true);
  w.key("result");
  w.begin_object();
  w.kv("feasible", result.feasible());
  w.kv("total_power_w", result.total_power_w);
  w.kv("unassigned_load", result.unassigned_load);
  w.kv("shed_load", result.shed_load);
  // Degradation accounting appears only when shards are down, keeping
  // fully healthy responses byte-identical to their historical form.
  if (result.shards_down() > 0) {
    w.kv("shards_down", static_cast<uint64_t>(result.shards_down()));
    w.kv("redistributed_load", result.redistributed_load);
  }
  w.key("shard_loads");
  w.array(result.shard_loads);
  w.key("shards");
  w.begin_array();
  for (size_t s = 0; s < result.shard_results.size(); ++s) {
    const core::PlanResult& r = result.shard_results[s];
    w.begin_object();
    w.kv("shard", static_cast<uint64_t>(s));
    const fleet::ShardStatus status = s < result.shard_status.size()
                                          ? result.shard_status[s]
                                          : fleet::ShardStatus::kOk;
    if (status != fleet::ShardStatus::kOk) {
      w.kv("status", fleet::to_string(status));
    }
    if (!r.error.empty()) w.kv("error", r.error);
    w.kv("feasible", r.feasible());
    w.kv("shed_load", r.shed_load);
    w.key("plan");
    if (r.plan.has_value()) {
      write_plan_object(w, *r.plan);
    } else {
      w.value_null();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  if (spans != nullptr) write_trace_object(w, *spans);
  if (deadline_ms.has_value()) w.kv("deadline_ms", *deadline_ms);
  w.end_object();
}

std::string encode_fleetplan_response(uint64_t id,
                                      const fleet::FleetPlanResult& result,
                                      const obs::SpanContext* spans,
                                      std::optional<uint64_t> deadline_ms) {
  std::string out;
  encode_fleetplan_response(out, id, result, spans, deadline_ms);
  return out;
}

std::string encode_measure_response(uint64_t id,
                                    const control::EvalPoint& point) {
  std::string out;
  obs::JsonWriter w(out);
  begin_response(w, id, Verb::kMeasure, true);
  w.key("result");
  write_point_object(w, point);
  w.end_object();
  return out;
}

std::string encode_sweep_response(uint64_t id,
                                  std::span<const control::EvalPoint> points) {
  std::string out;
  obs::JsonWriter w(out);
  begin_response(w, id, Verb::kSweep, true);
  w.key("result");
  w.begin_object();
  w.kv("points_len", static_cast<uint64_t>(points.size()));
  w.key("points");
  w.begin_array();
  for (const control::EvalPoint& point : points) write_point_object(w, point);
  w.end_array();
  w.end_object();
  w.end_object();
  return out;
}

std::string encode_inject_response(uint64_t id,
                                   const control::FaultCampaignResult& result) {
  std::string out;
  obs::JsonWriter w(out);
  begin_response(w, id, Verb::kInject, true);
  w.key("result");
  w.begin_object();
  w.kv("fault", result.scenario);
  w.kv("defense", control::to_string(result.defense));
  w.kv("demand_files_s", result.demand_files_s);
  w.kv("t_max_c", result.t_max_c);
  w.kv("violation_s", result.violation_s);
  w.kv("peak_cpu_c", result.peak_cpu_c);
  w.kv("shed_files", result.shed_files);
  w.kv("energy_j", result.energy_j);
  w.kv("final_total_power_w", result.final_total_power_w);
  w.kv("final_throughput_files_s", result.final_throughput_files_s);
  w.kv("fault_events", static_cast<uint64_t>(result.fault_events));
  w.kv("quarantines", static_cast<uint64_t>(result.quarantines));
  w.kv("readmissions", static_cast<uint64_t>(result.readmissions));
  w.kv("emergency_overrides",
       static_cast<uint64_t>(result.emergency_overrides));
  w.kv("watchdog_interventions",
       static_cast<uint64_t>(result.watchdog_interventions));
  w.end_object();
  w.end_object();
  return out;
}

std::string encode_subscribe_response(uint64_t id, uint64_t interval_ms,
                                      uint64_t ticks) {
  std::string out;
  obs::JsonWriter w(out);
  begin_response(w, id, Verb::kSubscribe, true);
  w.key("result");
  w.begin_object();
  w.kv("interval_ms", interval_ms);
  w.kv("ticks", ticks);
  w.end_object();
  w.end_object();
  return out;
}

std::string encode_health_response(uint64_t id, const HealthInfo& health) {
  std::string out;
  obs::JsonWriter w(out);
  begin_response(w, id, Verb::kHealth, true);
  w.key("result");
  w.begin_object();
  w.kv("queue_depth", static_cast<uint64_t>(health.queue_depth));
  w.kv("queue_capacity", static_cast<uint64_t>(health.queue_capacity));
  w.kv("workers", static_cast<uint64_t>(health.workers));
  w.kv("draining", health.draining);
  if (!health.shard_status.empty()) {
    w.key("shards");
    w.begin_array();
    for (size_t s = 0; s < health.shard_status.size(); ++s) {
      w.begin_object();
      w.kv("shard", static_cast<uint64_t>(s));
      w.kv("status", health.shard_status[s]);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();
  return out;
}

std::string encode_telemetry_tick(uint64_t subscription_id, uint64_t tick,
                                  const obs::MetricsDelta& delta,
                                  bool closing) {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  // Ticks lead with "verb":"telemetry" while responses lead with "id", so
  // a client multiplexing plans and a subscription on one connection can
  // split the streams on the first key.
  w.kv("verb", "telemetry");
  w.kv("subscription", subscription_id);
  w.kv("tick", tick);
  w.kv("seq", delta.to_sequence);
  if (closing) w.kv("closing", true);
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : delta.counters) w.kv(name, v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : delta.gauges) w.kv(name, v);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, s] : delta.histograms) {
    w.key(name);
    w.begin_object();
    w.kv("count", s.count);
    w.kv("sum", s.sum);
    w.kv("p50", s.p50);
    w.kv("p95", s.p95);
    w.kv("p99", s.p99);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return out;
}

namespace {

template <typename T>
  requires std::is_integral_v<T>
void write(obs::JsonWriter& w, T v) {
  w.value(static_cast<uint64_t>(v));
}
void write(obs::JsonWriter& w, double v) { w.value(v); }
void write(obs::JsonWriter& w, const std::string& v) { w.value(v); }
void write(obs::JsonWriter& w, Verb v) { w.value(to_string(v)); }
void write(obs::JsonWriter& w, Priority v) { w.value(to_string(v)); }
void write(obs::JsonWriter& w, const fleet::ShardMachine& q) {
  w.begin_object();
  w.kv("shard", static_cast<uint64_t>(q.shard));
  w.kv("machine", static_cast<uint64_t>(q.machine));
  w.end_object();
}
template <typename T>
void write(obs::JsonWriter& w, const std::optional<T>& v) {
  write(w, *v);
}
template <typename T>
void write(obs::JsonWriter& w, const std::vector<T>& v) {
  w.begin_array();
  for (const T& item : v) write(w, item);
  w.end_array();
}

/// Set: an engaged optional, a non-empty array, a non-zero scalar.
template <typename T>
bool is_set(const T& v) {
  return v != T{};
}
template <typename T>
bool is_set(const std::optional<T>& v) {
  return v.has_value();
}
template <typename T>
bool is_set(const std::vector<T>& v) {
  return !v.empty();
}

}  // namespace

std::string encode_request(const WireRequest& request) {
  std::string out;
  obs::JsonWriter w(out);
  const auto set = [&](const Field& field) {
    return std::visit([&](auto member) { return is_set(request.*member); },
                      field.target);
  };
  const auto put = [&](const Field& field) {
    w.key(field.name);
    std::visit([&](auto member) { write(w, request.*member); }, field.target);
  };
  // Defaulted fields are always written, optional ones when set. Of the
  // required fields, the last one set is written (plan's absolute `load`
  // wins), else the first.
  const std::span<const Use> fields = row_of(request.verb).fields;
  const Use* required = nullptr;
  for (const Use& use : fields) {
    if (use.presence == Presence::kRequired &&
        (required == nullptr || set(*use.field))) {
      required = &use;
    }
  }
  w.begin_object();
  for (const Field* field : kEnvelope) put(*field);
  for (const Use& use : fields) {
    if (use.presence == Presence::kDefault || &use == required ||
        (use.presence == Presence::kOptional && set(*use.field))) {
      put(*use.field);
    }
  }
  w.end_object();
  return out;
}

}  // namespace coolopt::service
