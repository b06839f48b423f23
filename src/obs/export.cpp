#include "obs/export.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <string_view>
#include <system_error>

#include "common/json.h"

namespace udwn {

namespace {

/// Member `key` of an imported line as a string; false when absent or not
/// a string.
bool read_string(const Json& line, std::string_view key, std::string& out) {
  const Json* value = line.find(key);
  if (value == nullptr || !value->is_string()) return false;
  out = value->as_string();
  return true;
}

/// Member `key` of an imported line as an unsigned integer that fits `T`;
/// false when absent, not an integer literal, negative or out of range.
template <typename T>
bool read_uint(const Json& line, std::string_view key, T& out) {
  const Json* value = line.find(key);
  if (value == nullptr) return false;
  const std::optional<std::uint64_t> u = value->as_uint64();
  if (!u.has_value() || *u > std::numeric_limits<T>::max()) return false;
  out = static_cast<T>(*u);
  return true;
}

/// Inverse of event_kind_name(); nullopt for a name it never produces.
std::optional<std::uint16_t> event_kind_from_name(std::string_view name) {
  for (const EventKind kind :
       {EventKind::kSlotEnd, EventKind::kDelivery, EventKind::kMassDelivery,
        EventKind::kStateTransition, EventKind::kRoundEnd,
        EventKind::kShardSpan}) {
    const auto value = static_cast<std::uint16_t>(kind);
    if (name == event_kind_name(value)) return value;
  }
  constexpr std::string_view kPrefix = "kind_";
  if (name.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  const char* const first = name.data() + kPrefix.size();
  const char* const last = name.data() + name.size();
  std::uint16_t value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

}  // namespace

std::string event_kind_name(std::uint16_t kind) {
  switch (static_cast<EventKind>(kind)) {
    case EventKind::kSlotEnd:
      return "slot_end";
    case EventKind::kDelivery:
      return "delivery";
    case EventKind::kMassDelivery:
      return "mass_delivery";
    case EventKind::kStateTransition:
      return "state_transition";
    case EventKind::kRoundEnd:
      return "round_end";
    case EventKind::kShardSpan:
      return "shard_span";
  }
  return "kind_" + std::to_string(kind);
}

bool export_jsonl(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"type\":\"meta\",\"format\":\"udwn-trace\",\"version\":1"
      << ",\"events\":" << trace.events.size()
      << ",\"dropped\":" << trace.dropped << "}\n";
  for (const auto& [name, value] : trace.counters)
    out << "{\"type\":\"counter\",\"name\":\"" << Json::escape(name)
        << "\",\"value\":" << value << "}\n";
  for (const auto& hist : trace.histograms) {
    out << "{\"type\":\"histogram\",\"name\":\"" << Json::escape(hist.name)
        << "\",\"count\":" << hist.count << ",\"sum\":" << hist.sum
        << ",\"buckets\":[";
    // Trailing zero buckets are elided; import zero-fills the remainder.
    std::size_t last = hist.buckets.size();
    while (last > 0 && hist.buckets[last - 1] == 0) --last;
    for (std::size_t b = 0; b < last; ++b) {
      if (b > 0) out << ',';
      out << hist.buckets[b];
    }
    out << "]}\n";
  }
  for (const auto& ev : trace.events)
    out << "{\"type\":\"event\",\"kind\":\"" << event_kind_name(ev.kind)
        << "\",\"round\":" << ev.round
        << ",\"slot\":" << static_cast<unsigned>(ev.slot)
        << ",\"ring\":" << static_cast<unsigned>(ev.ring)
        << ",\"node\":" << ev.node << ",\"aux\":" << ev.aux
        << ",\"value\":" << ev.value << "}\n";
  out.flush();
  return out.good();
}

std::optional<Trace> import_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Trace trace;
  bool saw_meta = false;
  std::uint64_t events = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Every line must be one complete object carrying every key the
    // exporter writes: a truncated, out-of-range or trailing-garbage line
    // fails the import instead of importing zeros or wrapped values.
    const std::optional<Json> json = Json::parse(line);
    std::string type;
    if (!json.has_value() || !read_string(*json, "type", type))
      return std::nullopt;
    if (type == "meta") {
      std::string format;
      std::uint64_t version = 0;
      if (saw_meta || !read_string(*json, "format", format) ||
          format != "udwn-trace" || !read_uint(*json, "version", version) ||
          version != 1 || !read_uint(*json, "events", events) ||
          !read_uint(*json, "dropped", trace.dropped))
        return std::nullopt;
      saw_meta = true;
    } else if (type == "counter") {
      std::string name;
      std::uint64_t value = 0;
      if (!read_string(*json, "name", name) ||
          !read_uint(*json, "value", value))
        return std::nullopt;
      trace.counters.emplace_back(std::move(name), value);
    } else if (type == "histogram") {
      MetricsRegistry::HistogramView hist;
      const Json* buckets = json->find("buckets");
      if (!read_string(*json, "name", hist.name) ||
          !read_uint(*json, "count", hist.count) ||
          !read_uint(*json, "sum", hist.sum) || buckets == nullptr ||
          !buckets->is_array() ||
          buckets->items().size() > hist.buckets.size())
        return std::nullopt;
      // Trailing zero buckets were elided on export; the rest stay zero.
      for (std::size_t b = 0; b < buckets->items().size(); ++b) {
        const std::optional<std::uint64_t> count =
            buckets->items()[b].as_uint64();
        if (!count.has_value()) return std::nullopt;
        hist.buckets[b] = *count;
      }
      trace.histograms.push_back(std::move(hist));
    } else if (type == "event") {
      std::string kind_name;
      TraceEvent ev;
      if (!read_string(*json, "kind", kind_name) ||
          !read_uint(*json, "round", ev.round) ||
          !read_uint(*json, "slot", ev.slot) ||
          !read_uint(*json, "ring", ev.ring) ||
          !read_uint(*json, "node", ev.node) ||
          !read_uint(*json, "aux", ev.aux) ||
          !read_uint(*json, "value", ev.value))
        return std::nullopt;
      const std::optional<std::uint16_t> kind = event_kind_from_name(kind_name);
      if (!kind.has_value()) return std::nullopt;
      ev.kind = *kind;
      trace.events.push_back(ev);
    } else {
      return std::nullopt;
    }
  }
  if (!saw_meta || events != trace.events.size()) return std::nullopt;
  return trace;
}

bool export_chrome(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& ev : trace.events) {
    if (!first) out << ',';
    first = false;
    // Synthetic clock: 10 us per round, 5 us per slot. Instant events keep
    // every record visible regardless of zoom.
    const std::uint64_t ts =
        std::uint64_t{ev.round} * 10 + std::uint64_t{ev.slot} * 5;
    out << "\n{\"name\":\"" << event_kind_name(ev.kind)
        << "\",\"ph\":\"i\",\"s\":\"g\",\"ts\":" << ts
        << ",\"pid\":0,\"tid\":" << static_cast<unsigned>(ev.ring)
        << ",\"args\":{\"round\":" << ev.round
        << ",\"slot\":" << static_cast<unsigned>(ev.slot)
        << ",\"node\":" << ev.node << ",\"aux\":" << ev.aux
        << ",\"value\":" << ev.value << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return out.good();
}

std::optional<std::uint64_t> count_chrome_events(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::uint64_t count = 0;
  std::string line;
  while (std::getline(in, line)) {
    // One traceEvents entry per line; each carries exactly one "ph" key.
    std::size_t pos = 0;
    while ((pos = line.find("\"ph\":", pos)) != std::string::npos) {
      ++count;
      pos += 5;
    }
  }
  return count;
}

}  // namespace udwn
