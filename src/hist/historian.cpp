#include "hist/historian.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/interfaces.h"
#include "sorcer/context.h"

namespace sensorcer::hist {

namespace {

/// Time/duration inputs ride as int64 or double (batch arrays are doubles).
util::Result<util::SimTime> get_time(const sorcer::ServiceContext& ctx,
                                     const std::string& path) {
  auto raw = ctx.get(path);
  if (!raw.is_ok()) return raw.status();
  if (const auto* i = std::get_if<std::int64_t>(&raw.value())) return *i;
  if (const auto* d = std::get_if<double>(&raw.value())) {
    return static_cast<util::SimTime>(*d);
  }
  return util::Result<util::SimTime>(util::ErrorCode::kInvalidArgument,
                                     "not a time: " + path);
}

sensor::Quality decode_quality(double q) {
  switch (static_cast<int>(q)) {
    case 1: return sensor::Quality::kSuspect;
    case 2: return sensor::Quality::kBad;
    default: return sensor::Quality::kGood;
  }
}

void put_points(sorcer::ServiceContext& ctx, const SeriesResult& result) {
  std::vector<double> timestamps;
  std::vector<double> values;
  timestamps.reserve(result.points.size());
  values.reserve(result.points.size());
  for (const Point& p : result.points) {
    timestamps.push_back(static_cast<double>(p.timestamp));
    values.push_back(p.value);
  }
  ctx.put(core::path::kHistTimestamps, std::move(timestamps),
          sorcer::PathDirection::kOut);
  ctx.put(core::path::kHistValues, std::move(values),
          sorcer::PathDirection::kOut);
  ctx.put(core::path::kHistSource, result.source, sorcer::PathDirection::kOut);
  ctx.put(core::path::kHistTruncated, result.truncated,
          sorcer::PathDirection::kOut);
}

}  // namespace

void put_series_page(sorcer::ServiceContext& ctx,
                     const std::vector<SeriesResult>& page) {
  std::size_t total = 0;
  for (const SeriesResult& series : page) total += series.points.size();
  std::vector<double> timestamps;
  std::vector<double> values;
  std::vector<double> counts;
  timestamps.reserve(total);
  values.reserve(total);
  counts.reserve(page.size());
  for (std::size_t i = 0; i < page.size(); ++i) {
    for (const Point& p : page[i].points) {
      timestamps.push_back(static_cast<double>(p.timestamp));
      values.push_back(p.value);
    }
    counts.push_back(static_cast<double>(page[i].points.size()));
    ctx.put(core::path::indexed(core::path::kHistSources, i), page[i].source,
            sorcer::PathDirection::kOut);
  }
  ctx.put(core::path::kHistTimestamps, std::move(timestamps),
          sorcer::PathDirection::kOut);
  ctx.put(core::path::kHistValues, std::move(values),
          sorcer::PathDirection::kOut);
  ctx.put(core::path::kHistCounts, std::move(counts),
          sorcer::PathDirection::kOut);
}

std::vector<util::Result<SeriesResult>> parse_series_page(
    const sorcer::ServiceContext& ctx, std::size_t n) {
  const auto malformed = [n](const char* why) {
    return std::vector<util::Result<SeriesResult>>(
        n, util::Status{util::ErrorCode::kInternal,
                        std::string("histDownsample reply: ") + why});
  };
  // Borrowed in place; `ctx` is not mutated while the borrows live.
  const auto* timestamps = ctx.peek_series(core::path::kHistTimestamps);
  const auto* values = ctx.peek_series(core::path::kHistValues);
  const auto* counts = ctx.peek_series(core::path::kHistCounts);
  if (timestamps == nullptr || values == nullptr || counts == nullptr) {
    return malformed("missing a column");
  }
  if (timestamps->size() != values->size()) {
    return malformed("timestamps/values length mismatch");
  }
  if (counts->size() != n) return malformed("one count per series expected");
  std::size_t total = 0;
  for (const double count : *counts) {
    // Written so NaN fails too; the bound keeps the sum inside the columns.
    if (!(count >= 0.0) || count != std::floor(count) ||
        count > static_cast<double>(timestamps->size() - total)) {
      return malformed("counts do not split the columns");
    }
    total += static_cast<std::size_t>(count);
  }
  if (total != timestamps->size()) {
    return malformed("counts do not split the columns");
  }
  std::vector<util::Result<SeriesResult>> out;
  out.reserve(n);
  std::size_t at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SeriesResult series;
    const auto count = static_cast<std::size_t>((*counts)[i]);
    series.points.reserve(count);
    for (const std::size_t end = at + count; at < end; ++at) {
      const double ts = (*timestamps)[at];
      // Only a double inside int64 range converts to a SimTime (NaN fails).
      if (!(std::fabs(ts) < 0x1p63)) {
        return malformed("timestamp out of range");
      }
      series.points.push_back({static_cast<util::SimTime>(ts), (*values)[at]});
    }
    series.source =
        ctx.peek_string(core::path::indexed(core::path::kHistSources, i))
            .value_or("");
    out.emplace_back(std::move(series));
  }
  return out;
}

Historian::Historian(std::string name, HistorianConfig config,
                     HistorianCosts costs)
    : ServiceProvider(std::move(name), {core::kDataCollectionType}),
      store_(std::move(config)),
      costs_(costs) {
  const HistorianConfig& cfg = store_.config();
  if (cfg.read_threads > 0) {
    read_exec_ = std::make_unique<ReadExecutor>(
        ReadExecutor::Config{cfg.read_threads, cfg.read_queue});
  }
  install_operations();
}

std::vector<sensor::Reading> Historian::decode_batch(
    const std::vector<double>& timestamps, const std::vector<double>& values,
    const std::vector<double>& qualities) {
  std::vector<sensor::Reading> out;
  const std::size_t n = std::min(timestamps.size(), values.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sensor::Reading r;
    r.timestamp = static_cast<util::SimTime>(timestamps[i]);
    r.value = values[i];
    r.quality = i < qualities.size() ? decode_quality(qualities[i])
                                     : sensor::Quality::kGood;
    out.push_back(r);
  }
  return out;
}

util::SimDuration Historian::extra_invocation_latency(
    const std::string& selector) const {
  (void)selector;
  return pending_extra_;
}

void Historian::install_operations() {
  add_operation(
      core::op::kAppendBatch,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        pending_extra_ = 0;
        auto sensor_name = ctx.get_string(core::path::kHistSensor);
        if (!sensor_name.is_ok()) return sensor_name.status();
        // Borrow the batch columns in place — the ingest hot path used to
        // copy all three series out of the context per call. The peeks are
        // only used to build `readings`, before any put() below moves the
        // entry storage.
        const auto* timestamps = ctx.peek_series(core::path::kHistTimestamps);
        if (timestamps == nullptr) {
          return {util::ErrorCode::kInvalidArgument,
                  "appendBatch: missing timestamps series"};
        }
        const auto* values = ctx.peek_series(core::path::kHistValues);
        if (values == nullptr) {
          return {util::ErrorCode::kInvalidArgument,
                  "appendBatch: missing values series"};
        }
        if (timestamps->size() != values->size()) {
          return {util::ErrorCode::kInvalidArgument,
                  "appendBatch: timestamps/values length mismatch"};
        }
        static const std::vector<double> kNoQualities;
        const auto* qualities = ctx.peek_series(core::path::kHistQualities);
        const auto readings = decode_batch(
            *timestamps, *values, qualities ? *qualities : kNoQualities);
        const AppendOutcome outcome =
            store_.append(sensor_name.value(), readings);
        pending_extra_ = static_cast<util::SimDuration>(readings.size()) *
                         costs_.per_reading;
        ctx.put(core::path::kHistAccepted,
                static_cast<std::int64_t>(outcome.accepted),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistDuplicates,
                static_cast<std::int64_t>(outcome.duplicates),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistLast,
                static_cast<std::int64_t>(
                    store_.last_timestamp(sensor_name.value())),
                sorcer::PathDirection::kOut);
        return util::Status::ok();
      },
      costs_.base);

  add_operation(
      core::op::kHistStats,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        pending_extra_ = 0;
        auto sensor_name = ctx.get_string(core::path::kHistSensor);
        if (!sensor_name.is_ok()) return sensor_name.status();
        auto from = get_time(ctx, core::path::kHistFrom);
        if (!from.is_ok()) return from.status();
        auto to = get_time(ctx, core::path::kHistTo);
        if (!to.is_ok()) return to.status();
        util::SimDuration resolution = 0;
        if (ctx.has(core::path::kHistResolution)) {
          auto r = get_time(ctx, core::path::kHistResolution);
          if (r.is_ok()) resolution = r.value();
        }
        const std::string& sensor = sensor_name.value();
        const StatsResult result = serve_read([&] {
          return store_.stats(sensor, from.value(), to.value(), resolution);
        });
        ctx.put(core::path::kHistCount,
                static_cast<std::int64_t>(result.stats.count),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistMin, result.stats.min,
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistMax, result.stats.max,
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistSum, result.stats.sum,
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistMean, result.stats.mean(),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistLast, result.stats.last,
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistSource, result.source,
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistFromEffective,
                static_cast<std::int64_t>(result.from_effective),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistToEffective,
                static_cast<std::int64_t>(result.to_effective),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistResolution,
                static_cast<std::int64_t>(result.resolution),
                sorcer::PathDirection::kOut);
        return util::Status::ok();
      },
      costs_.base);

  add_operation(
      core::op::kHistRange,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        pending_extra_ = 0;
        auto sensor_name = ctx.get_string(core::path::kHistSensor);
        if (!sensor_name.is_ok()) return sensor_name.status();
        auto from = get_time(ctx, core::path::kHistFrom);
        if (!from.is_ok()) return from.status();
        auto to = get_time(ctx, core::path::kHistTo);
        if (!to.is_ok()) return to.status();
        std::size_t max_points = 1024;
        if (ctx.has(core::path::kHistPoints)) {
          auto p = get_time(ctx, core::path::kHistPoints);
          if (p.is_ok() && p.value() > 0) {
            max_points = static_cast<std::size_t>(p.value());
          }
        }
        const std::string& sensor = sensor_name.value();
        const SeriesResult result = serve_read([&] {
          return store_.range(sensor, from.value(), to.value(), max_points);
        });
        pending_extra_ = static_cast<util::SimDuration>(result.points.size()) *
                         costs_.per_point;
        put_points(ctx, result);
        return util::Status::ok();
      },
      costs_.base);

  add_operation(
      core::op::kHistDownsample,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        pending_extra_ = 0;
        // Results are positional, so the list does not ride back.
        std::vector<std::string> sensors;
        for (;;) {
          const std::string at =
              core::path::indexed(core::path::kHistSensors, sensors.size());
          const auto name = ctx.peek_string(at);
          if (!name) break;
          sensors.emplace_back(*name);
          ctx.remove(at);
        }
        if (sensors.empty()) {
          return {util::ErrorCode::kInvalidArgument,
                  "histDownsample: no sensors listed"};
        }
        auto from = get_time(ctx, core::path::kHistFrom);
        if (!from.is_ok()) return from.status();
        auto to = get_time(ctx, core::path::kHistTo);
        if (!to.is_ok()) return to.status();
        std::size_t target_points = 64;
        if (ctx.has(core::path::kHistPoints)) {
          auto p = get_time(ctx, core::path::kHistPoints);
          if (p.is_ok() && p.value() > 0) {
            target_points = static_cast<std::size_t>(p.value());
          }
        }
        const std::vector<SeriesResult> page =
            serve_reads(sensors.size(), [&](std::size_t i) {
              return store_.downsample(sensors[i], from.value(), to.value(),
                                       target_points);
            });
        std::size_t longest = 0;
        for (const SeriesResult& series : page) {
          longest = std::max(longest, series.points.size());
        }
        pending_extra_ =
            static_cast<util::SimDuration>(longest) * costs_.per_point;
        put_series_page(ctx, page);
        return util::Status::ok();
      },
      costs_.base);
}

}  // namespace sensorcer::hist
