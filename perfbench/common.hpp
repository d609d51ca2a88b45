// Shared plumbing of the end-to-end benchmark: arguments, clocks, sample
// statistics and the one-line JSON result every run ends with.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path workdir;  ///< scratch volumes live here
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t nanos_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Set by main() before anything else runs: setup_s is measured from here.
inline Clock::time_point& process_start() {
  static Clock::time_point t = Clock::now();
  return t;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank quantile of an unsorted sample (copied, not reordered).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A tail percentile is only reported when at least ten samples lie beyond
/// it; below that the run is too short to say anything about the tail.
inline bool tail_resolved(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

struct Metric {
  double value = 0;
  std::string unit;
};

struct LayerDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric of the traced mode. Each workload reports all of
/// them; a layer that is not on a workload's path did no work there and
/// reads 0 (fs-age has no service or net layer, query-aged no net layer).
inline constexpr LayerDef kLayerMetrics[] = {
    {"core.write_store.ns_per_op", "ns"},
    {"core.cp.us_per_cp", "us"},
    {"core.cp.records_per_kop", "records/kop"},
    {"core.maintain.pages_read", "pages"},
    {"core.maintain.pages_written", "pages"},
    {"core.maintain.purged_per_krec", "records/krec"},
    {"core.maintain.mb_per_s", "MB/s"},
    {"lsm.l0_runs_at_maintain", "runs"},
    {"core.query.us", "us"},
    {"core.query.l0_runs", "runs"},
    {"core.result_cache.hit_ratio_read_only", "ratio"},
    {"core.result_cache.hit_ratio_written", "ratio"},
    {"core.wal.records_per_fsync", "records"},
    {"storage.env.page_reads_per_q", "pages"},
    {"storage.env.fsync_us", "us"},
    {"storage.block_cache.hit_ratio", "ratio"},
    {"storage.block_cache.evictions_per_kq", "pages/kq"},
    {"service.dispatch.us", "us"},
    {"service.queue.wait_us_p99", "us"},
    {"service.worker_pool.busy_fraction", "ratio"},
    {"net.ping_rtt_us", "us"},
    {"net.server.bytes_per_op", "bytes"},
    {"net.query_rtt_p50_us", "us"},
    {"budget.residual_pct", "%"},
    {"budget.trace_overhead_pct", "%"},
};

/// What a workload hands back to main(): the JSON result plus the checks
/// that failed (each printed to stderr; any one makes `correct` false).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// A per-layer metric; its unit comes from kLayerMetrics.
  void layer(const std::string& name, double value) {
    for (const LayerDef& d : kLayerMetrics) {
      if (name == d.name) return set(name, value, d.unit);
    }
    check_failures.push_back("unknown layer metric " + name);
  }
  /// Start the traced result with every layer metric at 0.
  void init_layers() {
    for (const LayerDef& d : kLayerMetrics) set(d.name, 0, d.unit);
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

inline void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.check_failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Result run_fs_age(const Args& args);
Result run_query_aged(const Args& args);
Result run_remote_durable(const Args& args);

}  // namespace perfbench
