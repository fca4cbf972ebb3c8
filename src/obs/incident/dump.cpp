// Byte codec for the incident engine: the checkpoint-embeddable state
// encoding (write_state/read_state), the determinism-relevant config echo,
// and the self-contained "TDPI" flight-recorder dump. Field order is
// frozen — these bytes are part of the determinism contract (dumps are
// compared bitwise across thread counts and kill/restore). decode_dump is
// the only reader of TDPI bytes: tools read dumps through dump_json (the
// tdp_inspect example) rather than decoding the layout themselves.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "obs/incident/incident.hpp"
#include "obs/json.hpp"

namespace tdp::obs::incident {
namespace {

// Section tags inside a "TDPI" dump.
constexpr std::uint32_t kDumpSecMeta = 1;
constexpr std::uint32_t kDumpSecConfig = 2;
constexpr std::uint32_t kDumpSecState = 3;
constexpr std::uint32_t kDumpSecWall = 4;

// Minimum encoded sizes, used to bound list counts against the bytes
// actually remaining before any allocation (hostile-input discipline).
constexpr std::size_t kAlertBytes = 8 + 8 + 4 + 8 + 1 + 8 + 8;
constexpr std::size_t kIncidentBytes =
    8 + 1 + 1 + 8 + 4 + 8 + 1 + 8 + 8 + 8 + 1 + 1 + 8 + 1;
constexpr std::size_t kRecorderBytes = 8 + 1 + 8 + 8;

std::uint64_t checked_count(ser::Reader& r, std::size_t unit,
                            const char* what) {
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / unit) {
    throw ser::FormatError(std::string("implausible ") + what + " count");
  }
  return count;
}

/// A u8-coded enum; codes past `last` raise "bad <what>".
template <typename Enum>
Enum read_enum(ser::Reader& r, Enum last, const char* what) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(last)) {
    throw ser::FormatError(std::string("bad ") + what);
  }
  return static_cast<Enum>(v);
}

/// The attribution snapshot that an Incident and the EngineState share:
/// storm flags (one bit per regime), health and the last re-anchor.
template <typename T>
void write_attribution(ser::Writer& w, const T& s) {
  w.u8(static_cast<std::uint8_t>((s.storm_blackout ? 1 : 0) |
                                 (s.storm_channel ? 2 : 0) |
                                 (s.storm_solver ? 4 : 0)));
  w.u8(static_cast<std::uint8_t>(s.health));
  w.i64(s.last_reanchor_day);
  w.i64(static_cast<std::int64_t>(s.last_reanchor));
}

template <typename T>
void read_attribution(ser::Reader& r, T& s, const char* storm_error) {
  const std::uint8_t storm = r.u8();
  if (storm > 7) throw ser::FormatError(storm_error);
  s.storm_blackout = (storm & 1) != 0;
  s.storm_channel = (storm & 2) != 0;
  s.storm_solver = (storm & 4) != 0;
  s.health = read_enum(r, Health::kFallback, "health value");
  s.last_reanchor_day = r.i64();
  const std::int64_t reanchor = r.i64();
  if (reanchor < -1 || reanchor > 3) {
    throw ser::FormatError("bad reanchor state");
  }
  s.last_reanchor = static_cast<ReanchorState>(reanchor);
}

/// Calls f(name, &IncidentConfig::field) for every echoed config field in
/// the frozen byte order: the one list behind the echo's writer, reader,
/// comparison and JSON.
template <typename F>
void for_each_echo_field(F&& f) {
  f("enabled", &IncidentConfig::enabled);
  f("cusum_k", &IncidentConfig::cusum_k);
  f("cusum_h", &IncidentConfig::cusum_h);
  f("channel_cusum_k", &IncidentConfig::channel_cusum_k);
  f("channel_cusum_h", &IncidentConfig::channel_cusum_h);
  f("ewma_alpha", &IncidentConfig::ewma_alpha);
  f("ewma_z", &IncidentConfig::ewma_z);
  f("ewma_min_days", &IncidentConfig::ewma_min_days);
  f("pacing_max_ratio", &IncidentConfig::pacing_max_ratio);
  f("pacing_grace_days", &IncidentConfig::pacing_grace_days);
  f("slo_short_window", &IncidentConfig::slo_short_window);
  f("slo_long_window", &IncidentConfig::slo_long_window);
  f("slo_short_burn", &IncidentConfig::slo_short_burn);
  f("slo_long_burn", &IncidentConfig::slo_long_burn);
  f("slo_max_fallback_per_day", &IncidentConfig::slo_max_fallback_per_day);
  f("slo_p2a_floor", &IncidentConfig::slo_p2a_floor);
  f("slo_p2a_window_days", &IncidentConfig::slo_p2a_window_days);
  f("recorder_capacity", &IncidentConfig::recorder_capacity);
  f("max_alerts", &IncidentConfig::max_alerts);
}

void put(ser::Writer& w, bool v) { w.boolean(v); }
void put(ser::Writer& w, double v) { w.f64(v); }
void put(ser::Writer& w, std::uint32_t v) { w.u32(v); }
void put(ser::Writer& w, std::uint64_t v) { w.u64(v); }
void get(ser::Reader& r, bool& v) { v = r.boolean(); }
void get(ser::Reader& r, double& v) { v = r.f64(); }
void get(ser::Reader& r, std::uint32_t& v) { v = r.u32(); }
void get(ser::Reader& r, std::uint64_t& v) { v = r.u64(); }

}  // namespace

void write_config_echo(ser::Writer& w, const IncidentConfig& config) {
  for_each_echo_field([&](const char*, auto field) { put(w, config.*field); });
}

IncidentConfig read_config_echo(ser::Reader& r) {
  IncidentConfig config;
  for_each_echo_field([&](const char*, auto field) { get(r, config.*field); });
  return config;
}

bool config_echo_matches(const IncidentConfig& a, const IncidentConfig& b) {
  bool same = true;
  for_each_echo_field(
      [&](const char*, auto field) { same = same && a.*field == b.*field; });
  return same;
}

void write_state(ser::Writer& w, const EngineState& state) {
  w.u64(state.next_alert_seq);
  w.u64(state.alerts_dropped);
  w.u64(state.alerts.size());
  for (const Alert& alert : state.alerts) {
    w.u64(alert.seq);
    w.u64(alert.day);
    w.u32(alert.period);
    w.u64(alert.abs_period);
    w.u8(static_cast<std::uint8_t>(alert.kind));
    w.f64(alert.value);
    w.f64(alert.threshold);
  }

  w.u64(state.next_incident_id);
  w.u64(state.incidents.size());
  for (const Incident& incident : state.incidents) {
    w.u64(incident.id);
    w.u8(static_cast<std::uint8_t>(incident.objective));
    w.u8(static_cast<std::uint8_t>(incident.severity));
    w.u64(incident.open_day);
    w.u32(incident.open_period);
    w.u64(incident.open_abs_period);
    w.boolean(incident.closed);
    w.u64(incident.close_abs_period);
    w.f64(incident.burn_short);
    w.f64(incident.burn_long);
    write_attribution(w, incident);
  }

  for (const CusumDetector* cusum :
       {&state.cusum_measurement, &state.cusum_channel, &state.cusum_solver}) {
    w.f64(cusum->value());
    w.u64(cusum->samples());
    w.u64(cusum->firings());
  }
  for (const EwmaDetector* ewma : {&state.ewma_p2a, &state.ewma_peak}) {
    w.f64(ewma->mean());
    w.f64(ewma->variance());
    w.u64(ewma->samples());
  }

  w.boolean(state.has_prev_health);
  w.u8(static_cast<std::uint8_t>(state.prev_health));

  w.u64(state.slo_window.size());
  w.bytes(state.slo_window.data(), state.slo_window.size());
  w.u32(state.slo_pos);
  w.u64(state.slo_filled);
  w.vec_f64(state.p2a_window);

  w.u64(state.settles_seen);
  w.u64(state.days_seen);
  w.u64(state.last_day);
  w.u32(state.last_period);
  w.u64(state.last_abs_period);

  write_attribution(w, state);

  w.u64(state.recorder.size());
  for (const RecorderEntry& entry : state.recorder) {
    w.u64(entry.abs_period);
    w.u8(static_cast<std::uint8_t>(entry.kind));
    w.f64(entry.a);
    w.f64(entry.b);
  }
  w.u32(state.recorder_pos);
  w.u64(state.recorder_overwritten);
}

EngineState read_state(ser::Reader& r) {
  EngineState state;
  state.next_alert_seq = r.u64();
  state.alerts_dropped = r.u64();
  const std::uint64_t alert_count = checked_count(r, kAlertBytes, "alert");
  state.alerts.reserve(alert_count);
  for (std::uint64_t i = 0; i < alert_count; ++i) {
    Alert alert;
    alert.seq = r.u64();
    alert.day = r.u64();
    alert.period = r.u32();
    alert.abs_period = r.u64();
    alert.kind = read_enum(r, AlertKind::kPacingBound, "alert kind");
    alert.value = r.f64();
    alert.threshold = r.f64();
    state.alerts.push_back(alert);
  }

  state.next_incident_id = r.u64();
  const std::uint64_t incident_count =
      checked_count(r, kIncidentBytes, "incident");
  state.incidents.reserve(incident_count);
  for (std::uint64_t i = 0; i < incident_count; ++i) {
    Incident incident;
    incident.id = r.u64();
    incident.objective =
        read_enum(r, Objective::kPacing, "incident objective");
    incident.severity =
        read_enum(r, Severity::kCritical, "incident severity");
    incident.open_day = r.u64();
    incident.open_period = r.u32();
    incident.open_abs_period = r.u64();
    incident.closed = r.boolean();
    incident.close_abs_period = r.u64();
    incident.burn_short = r.f64();
    incident.burn_long = r.f64();
    read_attribution(r, incident, "bad incident storm flags");
    state.incidents.push_back(incident);
  }

  for (CusumDetector* cusum :
       {&state.cusum_measurement, &state.cusum_channel, &state.cusum_solver}) {
    const double s = r.f64();
    const std::uint64_t samples = r.u64();
    const std::uint64_t firings = r.u64();
    cusum->restore(s, samples, firings);
  }
  for (EwmaDetector* ewma : {&state.ewma_p2a, &state.ewma_peak}) {
    const double mean = r.f64();
    const double var = r.f64();
    const std::uint64_t samples = r.u64();
    ewma->restore(mean, var, samples);
  }

  state.has_prev_health = r.boolean();
  state.prev_health = read_enum(r, Health::kFallback, "health value");

  const std::uint64_t slo_size = checked_count(r, 1, "slo window");
  state.slo_window.resize(slo_size);
  for (std::uint64_t i = 0; i < slo_size; ++i) {
    const std::uint8_t bit = r.u8();
    if (bit > 1) throw ser::FormatError("bad slo window bit");
    state.slo_window[i] = bit;
  }
  state.slo_pos = r.u32();
  if (!state.slo_window.empty() && state.slo_pos >= state.slo_window.size()) {
    throw ser::FormatError("slo position out of range");
  }
  state.slo_filled = r.u64();
  state.p2a_window = r.vec_f64_finite(1 << 20);

  state.settles_seen = r.u64();
  state.days_seen = r.u64();
  state.last_day = r.u64();
  state.last_period = r.u32();
  state.last_abs_period = r.u64();

  read_attribution(r, state, "bad storm flags");

  const std::uint64_t recorder_count =
      checked_count(r, kRecorderBytes, "recorder");
  state.recorder.reserve(recorder_count);
  for (std::uint64_t i = 0; i < recorder_count; ++i) {
    RecorderEntry entry;
    entry.abs_period = r.u64();
    entry.kind = read_enum(r, RecorderKind::kReanchor, "recorder kind");
    entry.a = r.f64();
    entry.b = r.f64();
    state.recorder.push_back(entry);
  }
  state.recorder_pos = r.u32();
  if (state.recorder_pos > state.recorder.size()) {
    throw ser::FormatError("recorder position out of range");
  }
  state.recorder_overwritten = r.u64();
  return state;
}

std::vector<std::uint8_t> encode_dump(const DumpData& data) {
  ser::Writer w(kDumpMagic, kDumpVersion);

  std::size_t token = w.begin_section(kDumpSecMeta);
  w.u64(data.day);
  w.u32(data.period);
  w.u8(data.has_wall ? 1 : 0);
  w.end_section(token);

  token = w.begin_section(kDumpSecConfig);
  write_config_echo(w, data.config);
  w.end_section(token);

  token = w.begin_section(kDumpSecState);
  write_state(w, data.state);
  w.end_section(token);

  if (data.has_wall) {
    token = w.begin_section(kDumpSecWall);
    w.u64(data.wall_counters.size());
    for (const auto& [name, value] : data.wall_counters) {
      w.str(name);
      w.u64(value);
    }
    w.vec_f64(data.wall_commit_latencies);
    w.end_section(token);
  }
  return w.finish();
}

DumpData decode_dump(const std::uint8_t* data, std::size_t size) {
  ser::Reader r(data, size, kDumpMagic, kDumpVersion, kDumpVersion);
  DumpData out;
  bool seen_meta = false;
  bool seen_config = false;
  bool seen_state = false;
  while (!r.at_end()) {
    const std::uint32_t tag = r.begin_section();
    switch (tag) {
      case kDumpSecMeta: {
        out.day = r.u64();
        out.period = r.u32();
        const std::uint8_t flags = r.u8();
        if (flags > 1) throw ser::FormatError("bad dump flags");
        out.has_wall = flags != 0;
        seen_meta = true;
        r.end_section();
        break;
      }
      case kDumpSecConfig:
        out.config = read_config_echo(r);
        seen_config = true;
        r.end_section();
        break;
      case kDumpSecState:
        out.state = read_state(r);
        seen_state = true;
        r.end_section();
        break;
      case kDumpSecWall: {
        const std::uint64_t count = checked_count(r, 4 + 8, "wall counter");
        out.wall_counters.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
          std::string name = r.str();
          const std::uint64_t value = r.u64();
          out.wall_counters.emplace_back(std::move(name), value);
        }
        out.wall_commit_latencies = r.vec_f64(1 << 20);
        r.end_section();
        break;
      }
      default:
        // Forward compatibility: a newer writer may add sections.
        r.skip_section();
        break;
    }
  }
  if (!seen_meta || !seen_config || !seen_state) {
    throw ser::FormatError("dump missing required section");
  }
  return out;
}

DumpData decode_dump(const std::vector<std::uint8_t>& bytes) {
  return decode_dump(bytes.data(), bytes.size());
}

namespace {

/// Indented JSON in the layout of Python's json.dump(indent=2): one key or
/// element per line, empty containers as {} and [].
class JsonWriter {
 public:
  void begin_object(const char* key = nullptr) { open(key, '{'); }
  void begin_array(const char* key = nullptr) { open(key, '['); }
  void end_object() { close('}'); }
  void end_array() { close(']'); }

  template <typename T>
  void value(const char* key, T v) {
    static_assert(std::is_arithmetic_v<T>, "strings go through str()");
    item(key);
    if constexpr (std::is_same_v<T, bool>) {
      out_ += v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
      // "-0" would load as the integer 0; keep the sign for the renderer.
      if (v == 0.0 && std::signbit(v)) {
        out_ += "-0.0";
      } else {
        append_number(out_, v);
      }
    } else if constexpr (std::is_signed_v<T>) {
      append_number(out_, std::int64_t{v});
    } else {
      append_number(out_, std::uint64_t{v});
    }
  }
  void str(const char* key, const std::string& value) {
    item(key);
    out_ += '"';
    append_json_escaped(out_, value);
    out_ += '"';
  }

  std::string finish() { return std::move(out_) + '\n'; }

 private:
  void item(const char* key) {
    if (depth_ > 0) {
      if (!empty_) out_ += ',';
      out_ += '\n';
      out_.append(2 * depth_, ' ');
    }
    empty_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\": ";
    }
  }
  void open(const char* key, char bracket) {
    item(key);
    out_ += bracket;
    ++depth_;
    empty_ = true;
  }
  void close(char bracket) {
    --depth_;
    if (!empty_) {
      out_ += '\n';
      out_.append(2 * depth_, ' ');
    }
    out_ += bracket;
    empty_ = false;
  }

  std::string out_;
  std::size_t depth_ = 0;
  bool empty_ = true;
};

template <typename T>
void write_attribution_json(JsonWriter& j, const T& s) {
  j.value("storm_blackout", s.storm_blackout);
  j.value("storm_channel", s.storm_channel);
  j.value("storm_solver", s.storm_solver);
  j.str("health", to_string(s.health));
  j.value("last_reanchor_day", s.last_reanchor_day);
  j.str("last_reanchor", to_string(s.last_reanchor));
}

/// The enum a recorder operand encodes, by name: the operand truncated
/// toward zero when that lands in [first, last], else "?".
template <typename Enum>
const char* operand_name(double code, Enum last, Enum first = Enum{}) {
  if (!(code > static_cast<int>(first) - 1.0 &&
        code < static_cast<int>(last) + 1.0)) {
    return "?";
  }
  return to_string(static_cast<Enum>(static_cast<int>(code)));
}

void write_recorder_entry(JsonWriter& j, const RecorderEntry& entry) {
  j.begin_object();
  j.value("abs_period", entry.abs_period);
  j.str("kind", to_string(entry.kind));
  j.value("a", entry.a);
  j.value("b", entry.b);
  switch (entry.kind) {
    case RecorderKind::kHealthEdge:
      j.str("a_name", operand_name(entry.a, Health::kFallback));
      j.str("b_name", operand_name(entry.b, Health::kFallback));
      break;
    case RecorderKind::kAlert:
      j.str("a_name", operand_name(entry.a, AlertKind::kPacingBound));
      break;
    case RecorderKind::kIncidentOpen:
      j.str("b_name", operand_name(entry.b, Objective::kPacing));
      break;
    case RecorderKind::kReanchor:
      j.str("a_name", operand_name(entry.a, ReanchorState::kFrozen,
                                   ReanchorState::kNone));
      break;
    default:
      break;
  }
  j.end_object();
}

void write_state_json(JsonWriter& j, const EngineState& state) {
  j.begin_object("state");
  j.value("next_alert_seq", state.next_alert_seq);
  j.value("alerts_dropped", state.alerts_dropped);
  j.begin_array("alerts");
  for (const Alert& alert : state.alerts) {
    j.begin_object();
    j.value("seq", alert.seq);
    j.value("day", alert.day);
    j.value("period", alert.period);
    j.value("abs_period", alert.abs_period);
    j.str("kind", to_string(alert.kind));
    j.value("value", alert.value);
    j.value("threshold", alert.threshold);
    j.end_object();
  }
  j.end_array();

  j.value("next_incident_id", state.next_incident_id);
  j.begin_array("incidents");
  for (const Incident& incident : state.incidents) {
    j.begin_object();
    j.value("id", incident.id);
    j.str("objective", to_string(incident.objective));
    j.str("severity", to_string(incident.severity));
    j.value("open_day", incident.open_day);
    j.value("open_period", incident.open_period);
    j.value("open_abs_period", incident.open_abs_period);
    j.value("closed", incident.closed);
    j.value("close_abs_period", incident.close_abs_period);
    j.value("burn_short", incident.burn_short);
    j.value("burn_long", incident.burn_long);
    write_attribution_json(j, incident);
    j.end_object();
  }
  j.end_array();

  const std::pair<const char*, const CusumDetector*> cusums[] = {
      {"cusum_measurement", &state.cusum_measurement},
      {"cusum_channel", &state.cusum_channel},
      {"cusum_solver", &state.cusum_solver}};
  for (const auto& [name, cusum] : cusums) {
    j.begin_object(name);
    j.value("s", cusum->value());
    j.value("samples", cusum->samples());
    j.value("firings", cusum->firings());
    j.end_object();
  }
  const std::pair<const char*, const EwmaDetector*> ewmas[] = {
      {"ewma_p2a", &state.ewma_p2a}, {"ewma_peak", &state.ewma_peak}};
  for (const auto& [name, ewma] : ewmas) {
    j.begin_object(name);
    j.value("mean", ewma->mean());
    j.value("variance", ewma->variance());
    j.value("samples", ewma->samples());
    j.end_object();
  }

  j.value("has_prev_health", state.has_prev_health);
  j.str("prev_health", to_string(state.prev_health));
  j.begin_array("slo_window");
  for (const std::uint8_t bit : state.slo_window) j.value(nullptr, bit);
  j.end_array();
  j.value("slo_pos", state.slo_pos);
  j.value("slo_filled", state.slo_filled);
  j.begin_array("p2a_window");
  for (const double value : state.p2a_window) j.value(nullptr, value);
  j.end_array();

  j.value("settles_seen", state.settles_seen);
  j.value("days_seen", state.days_seen);
  j.value("last_day", state.last_day);
  j.value("last_period", state.last_period);
  j.value("last_abs_period", state.last_abs_period);
  write_attribution_json(j, state);

  j.begin_array("recorder");
  for (const RecorderEntry& entry : state.recorder) {
    write_recorder_entry(j, entry);
  }
  j.end_array();
  j.value("recorder_pos", state.recorder_pos);
  j.value("recorder_overwritten", state.recorder_overwritten);
  j.end_object();
}

}  // namespace

std::string dump_json(const DumpData& data) {
  JsonWriter j;
  j.begin_object();
  j.value("day", data.day);
  j.value("period", data.period);
  j.value("has_wall", data.has_wall);

  j.begin_object("config");
  for_each_echo_field(
      [&](const char* name, auto field) { j.value(name, data.config.*field); });
  j.end_object();

  write_state_json(j, data.state);

  if (data.has_wall) {
    j.begin_object("wall");
    j.begin_array("counters");
    for (const auto& [name, value] : data.wall_counters) {
      j.begin_array();
      j.str(nullptr, name);
      j.value(nullptr, value);
      j.end_array();
    }
    j.end_array();
    j.begin_array("commit_latencies");
    for (const double latency : data.wall_commit_latencies) {
      j.value(nullptr, latency);
    }
    j.end_array();
    j.end_object();
  }
  j.end_object();
  return j.finish();
}

}  // namespace tdp::obs::incident
