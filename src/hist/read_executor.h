#pragma once
// ReadExecutor — the historian's read-side executor (ISSUE 10).
//
// Query serving moves off the caller's thread onto a small worker pool with
// a bounded admission queue: the Historian provider's exertion ops submit
// closures (a downsample page one per series), block on their futures, and
// the scan/decode work runs on executor workers. Bounding matters under
// dashboard load — when the queue is full the query runs inline on the
// caller (shed-to-caller), so a slow scan can degrade latency but can never
// deadlock or queue unboundedly. Queue depth, wait time and shed counts are mirrored
// onto the obs registry (hist.read_*) for the federation health report.
//
// Safe because SensorSeries reads are internally coordinated (bounded
// locked copy of the active block, lock-free walk of the immutable sealed
// chain) — workers never need a shard or provider lock.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <type_traits>
#include <utility>

#include "util/thread_pool.h"

namespace sensorcer::hist {

class ReadExecutor {
 public:
  struct Config {
    std::size_t threads = 2;
    /// Queries admitted to the queue at once; overflow runs inline on the
    /// caller's thread.
    std::size_t queue_capacity = 256;
  };

  explicit ReadExecutor(Config config);
  ReadExecutor() : ReadExecutor(Config()) {}
  ~ReadExecutor();

  ReadExecutor(const ReadExecutor&) = delete;
  ReadExecutor& operator=(const ReadExecutor&) = delete;

  /// Run `fn` on a worker (or inline when the queue is full) and return a
  /// future for its result. The caller may block on the future; workers
  /// take no external locks, so caller-blocks-on-worker cannot deadlock.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    const std::size_t depth =
        depth_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (depth > config_.queue_capacity) {
      // Shed to caller: bounded-queue overflow never waits, never deadlocks.
      depth_.fetch_sub(1, std::memory_order_relaxed);
      note_inline();
      std::packaged_task<R()> task(std::forward<F>(fn));
      std::future<R> fut = task.get_future();
      task();
      return fut;
    }
    note_depth(depth);
    const auto enqueued = std::chrono::steady_clock::now();
    return pool_.submit(
        [this, enqueued, fn = std::forward<F>(fn)]() mutable -> R {
          note_start(enqueued);
          struct Done {
            ReadExecutor* exec;
            ~Done() { exec->note_done(); }
          } done{this};
          return fn();
        });
  }

  [[nodiscard]] std::size_t depth() const {
    return depth_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t served() const {
    return served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t inline_runs() const {
    return inline_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t threads() const { return pool_.size(); }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void note_depth(std::size_t depth);
  void note_inline();
  void note_start(std::chrono::steady_clock::time_point enqueued);
  void note_done();

  Config config_;
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> inline_{0};
  util::ThreadPool pool_;  // last member: joins before counters die
};

}  // namespace sensorcer::hist
