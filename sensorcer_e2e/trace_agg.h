#pragma once
// Per-layer self time from a span trace. The traced run drains
// obs::span_collector() after every op and feeds the spans here. Each
// instant of the op's wall time is charged to the innermost span open at
// that instant (the one started last), so the layers' self times add up to
// the op's wall time. Each span name maps to the src/ module (layer) whose
// code ran under it.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace e2e {

/// src/ module a span's self time belongs to. Bench spans that wrap a call
/// running many layers (an op, a scheduler pump) map to "unattributed";
/// "bench.hist.*" spans wrap nothing but HistorianStore reads and map to
/// "hist".
std::string layer_of(std::string_view span_name);

class TraceAggregator {
 public:
  /// Fold in the spans recorded during one op.
  void add_op(const std::vector<sensorcer::obs::SpanRecord>& spans);

  /// Self microseconds per layer (including "unattributed").
  [[nodiscard]] const std::map<std::string, double>& self_us() const {
    return self_us_;
  }
  [[nodiscard]] double total_self_us() const;
  /// Share of all self time in `layer`.
  [[nodiscard]] double share(const std::string& layer) const;
  [[nodiscard]] std::uint64_t spans() const { return spans_; }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  std::map<std::string, double> self_us_;
  std::uint64_t spans_ = 0;
  std::uint64_t ops_ = 0;
};

}  // namespace e2e
