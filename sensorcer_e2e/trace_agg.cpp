#include "trace_agg.h"

#include <algorithm>

namespace e2e {

std::string layer_of(std::string_view name) {
  const auto starts = [&](std::string_view p) {
    return name.substr(0, p.size()) == p;
  };
  if (starts("bench.hist.")) return "hist";  // bench spans around store reads
  if (starts("bench.")) return "unattributed";
  if (starts("facade.")) return "core";
  if (starts("exert:") || starts("rpc:")) return "sorcer";
  if (starts("net.recv:")) return "simnet";
  if (starts("probe:")) return "sensor";
  if (starts("invoke:")) {
    // invoke:<provider>#<op>: the provider's op body is its module's code.
    const std::string_view provider =
        name.substr(7, name.find('#') == std::string_view::npos
                           ? std::string_view::npos
                           : name.find('#') - 7);
    if (provider == "Historian") return "hist";
    if (provider == "FlowManager" || provider.substr(0, 8) == "flow-op:") {
      return "flow";
    }
    if (provider == "Jobber" || provider == "Spacer") return "sorcer";
    if (provider == "Monitor" || provider.substr(0, 10) == "Cybernode-") {
      return "rio";
    }
    return "core";  // façade, composite and elementary sensor providers
  }
  return "unattributed";
}

void TraceAggregator::add_op(
    const std::vector<sensorcer::obs::SpanRecord>& spans) {
  ++ops_;
  spans_ += spans.size();
  // Sweep the op's wall timeline. Each instant belongs to the innermost
  // open span, the one started last, split evenly on ties. Parent links do
  // not give the nesting: a provider's invoke span is parented on the
  // exertion, yet runs inside the net.recv span delivering the request. And
  // calls in flight together on one thread (scatter-gather) overlap, so
  // "duration minus children" would count their shared wait several times.
  struct Event {
    std::int64_t t;
    bool start;
    std::size_t span;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].wall_end_us <= spans[i].wall_start_us) continue;
    events.push_back({spans[i].wall_start_us, true, i});
    events.push_back({spans[i].wall_end_us, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : (!a.start && b.start);  // ends first
  });
  std::vector<std::size_t> open;
  std::int64_t last = events.empty() ? 0 : events.front().t;
  for (const Event& e : events) {
    if (e.t > last && !open.empty()) {
      std::int64_t newest = 0;
      for (const std::size_t s : open) {
        newest = std::max(newest, spans[s].wall_start_us);
      }
      std::size_t n = 0;
      for (const std::size_t s : open) n += spans[s].wall_start_us == newest;
      const double share =
          static_cast<double>(e.t - last) / static_cast<double>(n);
      for (const std::size_t s : open) {
        if (spans[s].wall_start_us == newest) {
          self_us_[layer_of(spans[s].name)] += share;
        }
      }
    }
    last = e.t;
    if (e.start) {
      open.push_back(e.span);
    } else {
      open.erase(std::find(open.begin(), open.end(), e.span));
    }
  }
}

double TraceAggregator::total_self_us() const {
  double total = 0;
  for (const auto& [layer, us] : self_us_) total += us;
  return total;
}

double TraceAggregator::share(const std::string& layer) const {
  const double total = total_self_us();
  auto it = self_us_.find(layer);
  return total > 0 && it != self_us_.end() ? it->second / total : 0.0;
}

}  // namespace e2e
