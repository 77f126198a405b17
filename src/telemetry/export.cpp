#include "telemetry/export.hpp"

#include <cstdio>
#include <map>
#include <sstream>

namespace gs::telemetry {

namespace {

// Stable layer → Chrome pid mapping so the same layer lands on the same
// track across exports; unknown layers are assigned after the known ones
// in order of first appearance.
int pid_for_layer(const std::string& layer,
                  std::map<std::string, int>& assigned) {
  static const std::map<std::string, int> kWellKnown = {
      {"client", 1},    {"net", 2},     {"container", 3},
      {"storage", 4},   {"delivery", 5}};
  auto well_known = kWellKnown.find(layer);
  if (well_known != kWellKnown.end()) return well_known->second;
  auto it = assigned.find(layer);
  if (it != assigned.end()) return it->second;
  int next = static_cast<int>(kWellKnown.size()) + 1 +
             static_cast<int>(assigned.size());
  assigned.emplace(layer, next);
  return next;
}

std::string quoted(std::string_view raw) {
  return '"' + json_escape(raw) + '"';
}

std::string hex_id(std::uint64_t id) {
  std::ostringstream out;
  out << std::hex << id;
  return out.str();
}

}  // namespace

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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

std::string export_chrome_trace(const std::vector<SpanRecord>& spans) {
  std::map<std::string, int> extra_layers;
  std::map<std::uint64_t, int> trace_tids;
  std::map<int, std::string> process_names;

  std::string events;
  for (const SpanRecord& span : spans) {
    int pid = pid_for_layer(span.layer, extra_layers);
    process_names.emplace(pid, span.layer);
    int tid =
        trace_tids.try_emplace(span.trace_id,
                               static_cast<int>(trace_tids.size()) + 1)
            .first->second;
    if (!events.empty()) events += ",\n";
    events += R"({"ph":"X","name":)" + quoted(span.name);
    events += R"(,"cat":)" + quoted(span.layer);
    events += ",\"ts\":" + std::to_string(span.start_us);
    events += ",\"dur\":" + std::to_string(span.duration_us);
    events += ",\"pid\":" + std::to_string(pid);
    events += ",\"tid\":" + std::to_string(tid);
    // Ids as hex strings: uint64 doesn't survive a round trip through
    // JSON doubles.
    events += R"(,"args":{"trace":")" + hex_id(span.trace_id);
    events += R"(","span":")" + hex_id(span.span_id);
    events += R"(","parent":")" + hex_id(span.parent_span_id);
    events += "\"}}";
  }
  for (const auto& [pid, layer] : process_names) {
    if (!events.empty()) events += ",\n";
    events += R"({"ph":"M","name":"process_name","pid":)" +
              std::to_string(pid) + R"(,"tid":0,"args":{"name":)" +
              quoted(layer) + "}}";
  }
  return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" + events + "\n]}\n";
}

}  // namespace gs::telemetry
