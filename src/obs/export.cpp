#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace sensorcer::obs {

namespace {

/// %.17g survives a double round trip but prints integral values without an
/// exponent tail; good enough for deterministic trajectory lines.
std::string number(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  return util::format("%.6g", v);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_counters(
    std::vector<std::pair<std::string, std::uint64_t>> counters) {
  std::sort(counters.begin(), counters.end());
  std::string out = "{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ',';
    out += quoted(counters[i].first) + ":" + std::to_string(counters[i].second);
  }
  return out + "}";
}

std::string json_histograms(std::vector<HistogramSnapshot> histograms) {
  std::sort(histograms.begin(), histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::string out = "{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i > 0) out += ',';
    const auto& h = histograms[i];
    out += quoted(h.name) + ":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + number(h.sum) + ",\"mean\":" + number(h.mean) +
           ",\"p50\":" + number(h.p50) + ",\"p90\":" + number(h.p90) +
           ",\"p99\":" + number(h.p99) + ",\"max\":" + number(h.max) + "}";
  }
  return out + "}";
}

}  // namespace

std::string render_table(const Snapshot& snapshot) {
  std::vector<std::vector<std::string>> rows;
  const auto histogram_value = [](const HistogramSnapshot& h) {
    return util::format("n=%llu mean=%s p50=%s p99=%s max=%s",
                        static_cast<unsigned long long>(h.count),
                        number(h.mean).c_str(), number(h.p50).c_str(),
                        number(h.p99).c_str(), number(h.max).c_str());
  };
  for (const auto& [name, value] : snapshot.counters) {
    rows.push_back({name, "counter", std::to_string(value)});
  }
  for (const auto& [name, value] : snapshot.gauges) {
    rows.push_back({name, "gauge", number(value)});
  }
  for (const auto& h : snapshot.histograms) {
    rows.push_back({h.name, "histogram", histogram_value(h)});
  }
  for (const auto& [name, value] : snapshot.wall_counters) {
    rows.push_back({name, "wall counter", std::to_string(value)});
  }
  for (const auto& h : snapshot.wall_histograms) {
    rows.push_back({h.name, "wall histogram", histogram_value(h)});
  }
  std::sort(rows.begin(), rows.end());
  return util::render_table({"metric", "kind", "value"}, rows);
}

std::string to_json_line(const Snapshot& snapshot) {
  std::string out = "{\"sim_time_us\":" + std::to_string(snapshot.sim_time);
  out += ",\"counters\":" + json_counters(snapshot.counters);
  out += ",\"gauges\":{";
  auto gauges = snapshot.gauges;
  std::sort(gauges.begin(), gauges.end());
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ',';
    out += quoted(gauges[i].first) + ":" + number(gauges[i].second);
  }
  out += "},\"histograms\":" + json_histograms(snapshot.histograms);
  out += ",\"wall_counters\":" + json_counters(snapshot.wall_counters);
  out += ",\"wall_histograms\":" + json_histograms(snapshot.wall_histograms);
  return out + "}";
}

std::string render_trace_tree(const std::vector<SpanRecord>& spans) {
  // Children in recorded order under each parent; parents not present in
  // `spans` promote their children to the root level.
  std::unordered_set<std::uint64_t> present;
  for (const auto& s : spans) present.insert(s.span_id);
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  std::vector<const SpanRecord*> roots;
  for (const auto& s : spans) {
    if (s.parent_id != 0 && present.contains(s.parent_id)) {
      children[s.parent_id].push_back(&s);
    } else {
      roots.push_back(&s);
    }
  }

  std::string out;
  const std::function<void(const SpanRecord&, const std::string&, bool, bool)>
      render = [&](const SpanRecord& span, const std::string& prefix,
                   bool last, bool root) {
        const std::string label =
            span.name + "  [" +
            util::format_duration(span.sim_end - span.sim_start) +
            (span.ok ? "]" : ", FAILED]") + "\n";
        out += root ? label : prefix + (last ? "└─ " : "├─ ") + label;
        const auto it = children.find(span.span_id);
        if (it == children.end()) return;
        const std::string child_prefix =
            root ? prefix : prefix + (last ? "   " : "│  ");
        for (std::size_t i = 0; i < it->second.size(); ++i) {
          render(*it->second[i], child_prefix, i + 1 == it->second.size(),
                 false);
        }
      };
  for (const SpanRecord* root : roots) {
    render(*root, "", true, true);
  }
  return out;
}

}  // namespace sensorcer::obs
