#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_map>
#include <variant>

namespace vqe {
namespace {

// ---------------------------------------------------------------------------
// Shared formatting helpers
// ---------------------------------------------------------------------------

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest text that round-trips the double (never NaN/Inf — JSON and
/// the exposition format both require finite numbers).
std::string FormatDouble(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double back = std::strtod(buf, nullptr);
  if (back == v) {
    // Try shorter renderings for readability.
    for (int prec = 1; prec <= 16; ++prec) {
      char shorter[64];
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
      if (std::strtod(shorter, nullptr) == v) return shorter;
    }
  }
  return buf;
}

// ---------------------------------------------------------------------------
// Chrome trace-event writer
// ---------------------------------------------------------------------------

int PidForDomain(MetricDomain domain) {
  return domain == MetricDomain::kSimulated ? 1 : 2;
}

void WriteEventJson(const TraceEvent& e, std::ostream& os) {
  os << "{\"name\":\"" << JsonEscape(e.name) << "\",\"ph\":\"" << e.phase
     << "\",\"pid\":" << PidForDomain(e.domain) << ",\"tid\":" << e.track
     << ",\"ts\":" << FormatDouble(e.ts_ms * 1000.0);
  if (e.phase == 'X') {
    os << ",\"dur\":" << FormatDouble(e.dur_ms * 1000.0);
  }
  if (e.phase == 'i') {
    os << ",\"s\":\"t\"";  // thread-scoped instant
  }
  os << ",\"args\":{";
  bool first = true;
  if (e.frame >= 0) {
    os << "\"frame\":" << e.frame;
    first = false;
  }
  if (e.arg_name != nullptr) {
    if (!first) os << ",";
    os << "\"" << JsonEscape(e.arg_name)
       << "\":" << FormatDouble(e.arg_value);
  }
  os << "}}";
}

void WriteMetadataJson(int pid, int64_t tid, const char* what,
                       const std::string& name, std::ostream& os) {
  os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"ts\":0,\"args\":{\"name\":\""
     << JsonEscape(name) << "\"}}";
}

}  // namespace

void WriteChromeTrace(const TraceRecorder& recorder, std::ostream& os) {
  const std::vector<TraceEvent> events = recorder.Collect();
  const uint64_t dropped = recorder.dropped_events();

  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << dropped << ",\"capacity_per_thread\":"
     << recorder.capacity_per_thread() << "},\"traceEvents\":[";

  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: name the two domain processes, then every track seen.
  sep();
  WriteMetadataJson(1, 0, "process_name", "simulated-time", os);
  sep();
  WriteMetadataJson(2, 0, "process_name", "wall-clock", os);
  std::set<std::pair<int, int64_t>> tracks;
  for (const TraceEvent& e : events) {
    tracks.emplace(PidForDomain(e.domain), e.track);
  }
  for (const auto& [pid, tid] : tracks) {
    std::string name = tid >= kNodeTrackBase
                           ? "node " + std::to_string(tid - kNodeTrackBase)
                           : "stream " + std::to_string(tid);
    sep();
    WriteMetadataJson(pid, tid, "thread_name", name, os);
  }

  if (dropped > 0) {
    // Overflow is never silent: surface it on the timeline too. Emitted
    // at ts 0 *before* the sorted events so per-track array order stays
    // timestamp-monotone.
    sep();
    TraceEvent marker;
    marker.domain = MetricDomain::kWall;
    marker.phase = 'i';
    marker.track = kNodeTrackBase;
    marker.frame = -1;
    marker.ts_ms = 0.0;
    marker.name = "trace_buffer_overflow";
    marker.arg_name = "dropped_events";
    marker.arg_value = static_cast<double>(dropped);
    WriteEventJson(marker, os);
  }
  for (const TraceEvent& e : events) {
    sep();
    WriteEventJson(e, os);
  }
  os << "]}\n";
}

std::string ChromeTraceJson(const TraceRecorder& recorder) {
  std::ostringstream os;
  WriteChromeTrace(recorder, os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Strict JSON parser (validation only — builds a lightweight DOM)
// ---------------------------------------------------------------------------

namespace {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }

  const JsonValue* Find(std::string_view key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, val] : std::get<JsonObject>(v)) {
      if (k == key) return &val;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    VQE_RETURN_NOT_OK(ParseValue(&root, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return root;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError(what + " (at byte " + std::to_string(pos_) +
                              ")");
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > 64) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        std::string s;
        VQE_RETURN_NOT_OK(ParseString(&s));
        out->v = std::move(s);
        return Status::OK();
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out->v = true;
          return Status::OK();
        }
        return Error("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out->v = false;
          return Status::OK();
        }
        return Error("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out->v = nullptr;
          return Status::OK();
        }
        return Error("invalid literal");
      default: return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    JsonObject obj;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out->v = std::move(obj);
      return Status::OK();
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      VQE_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after key");
      }
      ++pos_;
      JsonValue val;
      VQE_RETURN_NOT_OK(ParseValue(&val, depth + 1));
      obj.emplace_back(std::move(key), std::move(val));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        out->v = std::move(obj);
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    JsonArray arr;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out->v = std::move(arr);
      return Status::OK();
    }
    while (true) {
      JsonValue val;
      VQE_RETURN_NOT_OK(ParseValue(&val, depth + 1));
      arr.push_back(std::move(val));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        out->v = std::move(arr);
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return Error("short \\u escape");
            for (int i = 1; i <= 4; ++i) {
              if (!std::isxdigit(
                      static_cast<unsigned char>(text_[pos_ + i]))) {
                return Error("bad \\u escape");
              }
            }
            // Validation only: keep the escape textually.
            *out += "\\u";
            *out += text_.substr(pos_ + 1, 4);
            pos_ += 4;
            break;
          }
          default: return Error("bad escape character");
        }
        ++pos_;
        continue;
      }
      *out += c;
      ++pos_;
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    size_t digits = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      ++digits;
    }
    if (digits == 0) return Error("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      size_t frac = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++frac;
      }
      if (frac == 0) return Error("invalid number (no fraction digits)");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      size_t exp = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++exp;
      }
      if (exp == 0) return Error("invalid number (no exponent digits)");
    }
    out->v = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                         nullptr);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Status CheckTraceEvents(const JsonArray& events) {
  struct TrackState {
    int open_spans = 0;       // B/E nesting depth
    double last_ts = -std::numeric_limits<double>::infinity();
  };
  std::map<std::pair<double, double>, TrackState> tracks;

  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events[i];
    auto fail = [&](const std::string& what) {
      return Status::InvalidArgument("traceEvents[" + std::to_string(i) +
                                     "]: " + what);
    };
    if (!e.is_object()) return fail("event is not an object");
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string()) {
      return fail("missing string field \"ph\"");
    }
    const std::string& phase = std::get<std::string>(ph->v);
    if (phase.size() != 1) return fail("\"ph\" must be one character");
    const JsonValue* name = e.Find("name");
    if (name == nullptr || !name->is_string()) {
      return fail("missing string field \"name\"");
    }
    const JsonValue* pid = e.Find("pid");
    const JsonValue* tid = e.Find("tid");
    if (pid == nullptr || !pid->is_number()) {
      return fail("missing numeric field \"pid\"");
    }
    if (tid == nullptr || !tid->is_number()) {
      return fail("missing numeric field \"tid\"");
    }
    if (phase == "M") continue;  // metadata: no timing constraints

    const JsonValue* ts = e.Find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return fail("missing numeric field \"ts\"");
    }
    double ts_v = std::get<double>(ts->v);
    TrackState& track = tracks[{std::get<double>(pid->v),
                                std::get<double>(tid->v)}];
    if (phase == "X") {
      const JsonValue* dur = e.Find("dur");
      if (dur == nullptr || !dur->is_number()) {
        return fail("'X' event missing numeric \"dur\"");
      }
      if (std::get<double>(dur->v) < 0.0) {
        return fail("'X' event with negative \"dur\"");
      }
    } else if (phase == "B") {
      ++track.open_spans;
    } else if (phase == "E") {
      if (track.open_spans <= 0) {
        return fail("'E' event with no matching 'B' on its track");
      }
      --track.open_spans;
    } else if (phase != "i" && phase != "I" && phase != "C") {
      return fail("unsupported phase \"" + phase + "\"");
    }
    // Monotonicity in array order per track ('E' may close at the same
    // or later ts; it shares the same check).
    if (ts_v + 1e-9 < track.last_ts) {
      return fail("timestamps not monotone on track (ts " +
                  FormatDouble(ts_v) + " after " +
                  FormatDouble(track.last_ts) + ")");
    }
    track.last_ts = std::max(track.last_ts, ts_v);
  }
  for (const auto& [key, track] : tracks) {
    if (track.open_spans != 0) {
      return Status::InvalidArgument(
          "unbalanced B/E events: " + std::to_string(track.open_spans) +
          " span(s) left open on a track");
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateChromeTrace(std::string_view json) {
  JsonParser parser(json);
  Result<JsonValue> parsed = parser.Parse();
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();

  const JsonArray* events = nullptr;
  if (root.is_array()) {
    events = &std::get<JsonArray>(root.v);
  } else if (root.is_object()) {
    const JsonValue* te = root.Find("traceEvents");
    if (te == nullptr || !te->is_array()) {
      return Status::InvalidArgument(
          "root object has no \"traceEvents\" array");
    }
    events = &std::get<JsonArray>(te->v);
  } else {
    return Status::InvalidArgument(
        "root must be an object or an event array");
  }
  return CheckTraceEvents(*events);
}

// ---------------------------------------------------------------------------
// Prometheus-style text exposition
// ---------------------------------------------------------------------------

namespace {

std::string LabelEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string ExportMetricsText(const MetricsRegistry& registry) {
  std::ostringstream os;
  for (const MetricsRegistry::MetricView& m : registry.Snapshot()) {
    const std::string domain = MetricDomainToString(m.domain);
    if (!m.help.empty()) {
      os << "# HELP " << m.name << " " << m.help << "\n";
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << m.name << " counter\n";
        os << m.name << "{domain=\"" << domain << "\"} "
           << (m.unit == MetricUnit::kMs ? FormatDouble(m.value)
                                         : std::to_string(m.raw))
           << "\n";
        break;
      case MetricKind::kHistogram: {
        os << "# TYPE " << m.name << " histogram\n";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < m.histogram.bucket_counts.size(); ++i) {
          cumulative += m.histogram.bucket_counts[i];
          std::string le = i < m.histogram.bounds.size()
                               ? FormatDouble(m.histogram.bounds[i])
                               : "+Inf";
          os << m.name << "_bucket{domain=\"" << domain << "\",le=\""
             << LabelEscape(le) << "\"} " << cumulative << "\n";
        }
        os << m.name << "_sum{domain=\"" << domain << "\"} "
           << FormatDouble(m.histogram.sum) << "\n";
        os << m.name << "_count{domain=\"" << domain << "\"} "
           << m.histogram.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

Result<std::vector<MetricSample>> ParseMetricsText(std::string_view text) {
  std::vector<MetricSample> out;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    auto fail = [&](const std::string& what) {
      return Status::ParseError(what + " (line " + std::to_string(line_no) +
                                ")");
    };
    // Trim trailing CR and surrounding spaces.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.empty() || line[0] == '#') continue;

    MetricSample sample;
    size_t i = 0;
    auto name_char = [](char c, bool first) {
      return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
             c == ':' || (!first && std::isdigit(static_cast<unsigned char>(c)));
    };
    while (i < line.size() && name_char(line[i], i == 0)) ++i;
    if (i == 0) return fail("expected metric name");
    sample.name = std::string(line.substr(0, i));

    if (i < line.size() && line[i] == '{') {
      ++i;
      while (true) {
        if (i >= line.size()) return fail("unterminated label set");
        if (line[i] == '}') {
          ++i;
          break;
        }
        size_t key_start = i;
        while (i < line.size() && name_char(line[i], i == key_start)) ++i;
        if (i == key_start) return fail("expected label name");
        std::string key(line.substr(key_start, i - key_start));
        if (i >= line.size() || line[i] != '=') {
          return fail("expected '=' after label name");
        }
        ++i;
        if (i >= line.size() || line[i] != '"') {
          return fail("expected '\"' to open label value");
        }
        ++i;
        std::string value;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') {
            ++i;
            if (i >= line.size()) return fail("unterminated escape");
            switch (line[i]) {
              case '\\': value += '\\'; break;
              case '"': value += '"'; break;
              case 'n': value += '\n'; break;
              default: return fail("bad escape in label value");
            }
          } else {
            value += line[i];
          }
          ++i;
        }
        if (i >= line.size()) return fail("unterminated label value");
        ++i;  // closing '"'
        sample.labels.emplace(std::move(key), std::move(value));
        if (i < line.size() && line[i] == ',') ++i;
      }
    }
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) return fail("missing sample value");
    std::string value_text(line.substr(i));
    if (value_text == "+Inf") {
      sample.value = std::numeric_limits<double>::infinity();
    } else if (value_text == "-Inf") {
      sample.value = -std::numeric_limits<double>::infinity();
    } else {
      char* end = nullptr;
      sample.value = std::strtod(value_text.c_str(), &end);
      if (end == value_text.c_str()) return fail("bad sample value");
      while (*end == ' ') ++end;
      if (*end != '\0') {
        // Optional trailing timestamp (integer), per the exposition format.
        char* ts_end = nullptr;
        (void)std::strtoll(end, &ts_end, 10);
        if (ts_end == end || *ts_end != '\0') {
          return fail("trailing garbage after sample value");
        }
      }
    }
    out.push_back(std::move(sample));
  }
  return out;
}

Status WriteMetricsFile(const MetricsRegistry& registry,
                        const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return Status::Internal("cannot open metrics file: " + path);
  os << ExportMetricsText(registry);
  os.flush();
  if (!os) return Status::Internal("failed writing metrics file: " + path);
  return Status::OK();
}

Status WriteChromeTraceFile(const TraceRecorder& recorder,
                            const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return Status::Internal("cannot open trace file: " + path);
  WriteChromeTrace(recorder, os);
  os.flush();
  if (!os) return Status::Internal("failed writing trace file: " + path);
  return Status::OK();
}

}  // namespace vqe
