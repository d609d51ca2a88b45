// One-second measurement windows over a VolumeManager, shared by the
// workloads that drive the service. The thread that calls run() marks the
// windows; in traced runs every odd window has the service's tracing on
// (every foreground op stage-stamped), and a ServiceStats snapshot is taken
// at every window edge, so a traced window's share of the service's
// cumulative histograms is the difference of two snapshots.
#pragma once

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common.hpp"
#include "service/service.hpp"

namespace perfbench {

/// Cumulative-histogram difference (the service's histograms only grow).
inline backlog::service::LatencyHistogram hist_delta(
    const backlog::service::LatencyHistogram& before,
    const backlog::service::LatencyHistogram& after) {
  namespace service = backlog::service;
  service::LatencyHistogram d;
  const std::vector<service::HistogramBucket> b = before.to_buckets();
  for (const service::HistogramBucket& a : after.to_buckets()) {
    std::uint64_t prev = 0;
    for (const auto& x : b) {
      if (x.le_micros == a.le_micros) prev = x.count;
    }
    if (a.count > prev)
      d.ingest_bucket(service::LatencyHistogram::bucket_of(a.le_micros), a.count - prev);
  }
  d.ingest_sum_max(after.sum_micros() - before.sum_micros(), after.max_micros());
  return d;
}

struct Windows {
  Windows(double seconds, bool trace)
      : count(static_cast<std::size_t>(std::ceil(seconds))), traced(count, 0) {
    for (std::size_t w = 0; w < count; ++w) traced[w] = trace && w % 2 == 1;
  }

  /// The window in progress; `count` once the measured phase is over.
  [[nodiscard]] std::size_t current() const {
    return now.load(std::memory_order_relaxed);
  }

  /// Marks the windows from t0 on, switching the service's tracing with
  /// them; returns once the last window has ended.
  void run(backlog::service::VolumeManager& vm, Clock::time_point t0, bool trace) {
    if (trace) edges.push_back(vm.stats());
    for (std::size_t w = 0; w < count; ++w) {
      vm.set_tracing(traced[w] ? 1 : 0, 0);
      std::this_thread::sleep_until(t0 + std::chrono::seconds(w + 1));
      now.store(w + 1, std::memory_order_relaxed);
      if (trace) edges.push_back(vm.stats());
    }
    vm.set_tracing(0, 0);
  }

  /// The service totals' histogram `h` over the traced windows only.
  [[nodiscard]] backlog::service::LatencyHistogram traced_delta(
      backlog::service::LatencyHistogram backlog::service::TenantStats::*h) const {
    backlog::service::LatencyHistogram d;
    for (std::size_t w = 0; w + 1 < edges.size(); ++w) {
      if (traced[w]) d.merge(hist_delta(edges[w].total.*h, edges[w + 1].total.*h));
    }
    return d;
  }

  const std::size_t count;
  std::vector<char> traced;                           ///< per window
  std::vector<backlog::service::ServiceStats> edges;  ///< traced runs: count + 1

 private:
  std::atomic<std::size_t> now{0};
};

}  // namespace perfbench
