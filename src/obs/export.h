#pragma once
// Snapshot export — turns a metrics Snapshot into the two forms the repo
// consumes: an aligned ASCII table (browser panes, bench stdout) and a
// single JSON line (appendable into BENCH_*.json trajectory files, one
// snapshot per line).

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sensorcer::obs {

/// Aligned ASCII table of every instrument in the snapshot.
[[nodiscard]] std::string render_table(const Snapshot& snapshot);

/// One-line JSON object:
/// {"sim_time_us":N,"counters":{...},"gauges":{...},"histograms":{"name":
/// {"count":..,"sum":..,"mean":..,"p50":..,"p90":..,"p99":..,"max":..}},
/// "wall_counters":{...},"wall_histograms":{...}}
/// Keys are name-sorted, numbers are locale-independent — two snapshots of
/// identical state serialize byte-identically (trajectory diffing).
[[nodiscard]] std::string to_json_line(const Snapshot& snapshot);

/// ASCII tree of the given spans (one trace, as returned by
/// SpanCollector::trace), children indented under parents, with per-span
/// sim duration. Orphans (parent not retained) print at the root.
[[nodiscard]] std::string render_trace_tree(
    const std::vector<SpanRecord>& spans);

}  // namespace sensorcer::obs
