// query-aged: owner queries against aged volumes hosted by an in-process
// VolumeManager with the default CacheOptions (32 MB block cache, 256
// result-cache entries per volume).
//
// The eight §6.2.1 recordings (see aging.hpp) are made in child processes
// before the program starts. Set-up then ages eight volumes with them,
// driven through apply_batch / consistency_point. Four are maintained at
// the end and then only read; four were maintained half-way, so they hold
// the Level-0 runs of the second half (stale), and they keep receiving a
// trickle of copy-on-write batches and CPs while they are read. Together
// the volumes' run files are larger than the block cache.
//
// Two closed-loop client threads alternate §6.4 sequential runs (a run of
// length 1..1024 issues that many consecutive single-block queries) with
// as many Zipf-skewed point queries, on a read-only volume 3 times in 4;
// every 256th operation of a client is a write batch to one of its two
// stale volumes. The set-up's maintenance passes are timed as well.
//
// Every query goes through VolumeManager::query. Traced runs switch the
// service's tracing on in every other window and split the round trip with
// the service's own histograms (see windows.hpp).
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "aging.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "service/service.hpp"
#include "util/random.hpp"
#include "windows.hpp"

namespace perfbench {

namespace core = backlog::core;
namespace service = backlog::service;
namespace storage = backlog::storage;
namespace util = backlog::util;

namespace {

constexpr std::size_t kVolumes = 8;       // 0..3 read-only, 4..7 written
constexpr std::size_t kReadOnly = 4;
constexpr std::size_t kClients = 2;
constexpr std::uint64_t kAgingCps = 120;
constexpr std::uint64_t kWriteEvery = 256;  // client ops per write batch
constexpr std::uint64_t kTrickleFiles = 512;
constexpr std::uint64_t kTricklePairs = 16;  // CoW pairs per write batch
constexpr std::uint64_t kCpEvery = 8;        // write batches per CP
constexpr core::InodeNo kTrickleInode = 1ull << 40;
constexpr std::uint64_t kCheckEvery = 61;    // 1 in N read-only answers kept
constexpr std::size_t kMaxSamples = 2048;    // per client, so memory is fixed
constexpr std::size_t kRecordJobs = 4;       // recording processes at a time

/// Scatters Zipf ranks over the block space, so hot blocks are not
/// neighbours (splitmix64 finalizer).
std::uint64_t scatter(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string tenant(std::size_t v) {
  return (v < kReadOnly ? "ro-" : "rw-") + std::to_string(v);
}

/// The copy-on-write trickle of one written volume: file f's only block
/// moves to a random aged block on every write. Owned by one client.
struct Trickle {
  std::vector<core::BlockNo> block;  ///< current block of each trickle file
  std::uint64_t batches = 0;
};

struct Sample {
  std::size_t volume;
  core::BlockNo block;
  std::vector<RefTuple> answer;
};

/// One window's query latencies, merged over the clients.
struct WindowFigures {
  double queries = 0, sum_us = 0, p50_us = 0, p99_us = 0;
  bool p99_resolved = false;
};

/// Folds each window's latencies into WindowFigures as soon as every client
/// has handed in its share. The samples held then stay a window or two's
/// worth: kept whole, they would grow peak_rss_mb with the query rate.
class WindowFold {
 public:
  WindowFold(std::size_t windows, std::size_t clients)
      : figures(windows), parts_(windows), left_(windows, clients) {}

  void hand_in(std::size_t w, const std::vector<double>& us) {
    std::lock_guard lock(mu_);
    std::vector<double>& all = parts_[w];
    all.insert(all.end(), us.begin(), us.end());
    if (--left_[w] > 0) return;
    WindowFigures& f = figures[w];
    f.queries = static_cast<double>(all.size());
    for (const double x : all) f.sum_us += x;
    f.p50_us = quantile(all, 0.50);
    f.p99_resolved = tail_resolved(all.size(), 0.99);
    if (f.p99_resolved) f.p99_us = quantile(all, 0.99);
    std::vector<double>().swap(all);
  }

  std::vector<WindowFigures> figures;

 private:
  std::mutex mu_;
  std::vector<std::vector<double>> parts_;
  std::vector<std::size_t> left_;  ///< clients yet to hand in, per window
};

struct ClientOut {
  std::vector<std::uint64_t> volume_queries = std::vector<std::uint64_t>(kVolumes);
  std::vector<Sample> samples;
  std::uint64_t queries = 0, write_ops = 0, cps = 0;
  std::uint64_t cp_ops = 0, cp_records = 0, cp_pages = 0;
  std::vector<double> cp_us;
  std::vector<std::string> errors;
};

}  // namespace

Result run_query_aged(const Args& args) {
  Result res;
  // --- input generation: recordings made in child processes, before the
  // program starts; setup_s leaves out this time and the loads below.
  const auto g0 = Clock::now();
  std::vector<AgingSpec> specs(kVolumes);
  for (std::size_t v = 0; v < kVolumes; ++v) {
    specs[v].seed = args.seed * 64 + v;
    specs[v].cps = kAgingCps;
  }
  const std::vector<std::filesystem::path> files =
      record_in_children(specs, args.workdir, kRecordJobs);
  double input_s = seconds_since(g0);
  std::uintmax_t input_bytes = 0;
  for (const auto& f : files) input_bytes += std::filesystem::file_size(f);

  // --- set-up: age every volume through the service ---------------------
  service::ServiceOptions so;
  so.shards = 2;
  so.root = args.workdir / "service";
  so.db_options = aging_db_options(specs[0]);
  service::VolumeManager vm(so);
  std::vector<AgedStream> streams(kVolumes);

  std::vector<std::string> names;
  for (std::size_t v = 0; v < kVolumes; ++v) names.push_back(tenant(v));
  // The set-up's maintenance passes (one per volume) price the
  // maintenance layer for the traced mode.
  struct {
    core::MaintenanceStats stats;
    std::uint64_t l0_runs = 0;
    std::vector<double> mb_per_s;
  } maint;
  std::vector<Trickle> trickle(kVolumes);
  util::Rng setup_rng(args.seed * 977 + 5);
  for (std::size_t v = 0; v < kVolumes; ++v) {
    // One CP window of a recording in memory at a time; the ground truth
    // stays on disk until the checks.
    StepReader reader(files[v]);
    streams[v] = reader.head();
    const AgedStream& s = streams[v];
    const std::string t = tenant(v);
    vm.open_volume(t);
    const std::uint64_t maintain_at = v < kReadOnly ? reader.steps() : reader.steps() / 2;
    for (std::uint64_t i = 0;; ++i) {
      AgingStep step;
      const auto l0 = Clock::now();
      if (!reader.next(step)) break;
      input_s += seconds_since(l0);
      const auto events = [&](const std::vector<RegistryEvent>& ev) {
        if (ev.empty()) return;
        vm.with_db(t, [&](core::BacklogDb& db) {
            if (!apply_events(db.registry(), ev))
              res.expect(false, "query-aged: registry replay diverged on " + t);
          }).get();
      };
      events(step.before);
      vm.apply_batch(t, std::move(step.ops)).get();
      events(step.after);
      vm.consistency_point(t).get();
      if (i + 1 == maintain_at) {
        maint.l0_runs += vm.quick_stats(t).get().l0_runs();
        const auto m0 = Clock::now();
        const core::MaintenanceStats m = vm.maintain(t).get();
        maint.mb_per_s.push_back(static_cast<double>(m.bytes_before) / 1e6 /
                                 seconds_since(m0));
        maint.stats.input_records += m.input_records;
        maint.stats.purged += m.purged;
        maint.stats.pages_read += m.pages_read;
        maint.stats.pages_written += m.pages_written;
      }
    }
    if (v >= kReadOnly) {
      // The trickle files start on random aged blocks.
      std::vector<service::UpdateOp> ops;
      for (std::uint64_t f = 0; f < kTrickleFiles; ++f) {
        const core::BlockNo b = 1 + setup_rng.below(s.max_block - 1);
        trickle[v].block.push_back(b);
        ops.push_back({core::Update::Kind::kAdd, {b, kTrickleInode + f, 0, 1, 0}});
      }
      vm.apply_batch(t, std::move(ops)).get();
      vm.consistency_point(t).get();
    }
  }
  const double setup_s = seconds_since(process_start()) - input_s;
  {
    std::uint64_t bytes = 0;
    std::string runs;
    for (std::size_t v = 0; v < kVolumes; ++v) {
      bytes += vm.db_stats(tenant(v)).get().db_bytes;
      runs += " " + std::to_string(vm.quick_stats(tenant(v)).get().l0_runs());
    }
    std::fprintf(stderr,
                 "query-aged: inputs %.1f MB in %.2f s, set-up %.2f s; run files %.1f MB against a %.1f MB "
                 "block cache; Level-0 runs per volume:%s\n",
                 static_cast<double>(input_bytes) / 1e6, input_s, setup_s,
                 static_cast<double>(bytes) / 1e6,
                 static_cast<double>(vm.cache_stats().block.capacity_bytes) / 1e6,
                 runs.c_str());
  }

  std::vector<storage::IoStats> io_before(kVolumes);
  std::vector<core::ResultCacheStats> rc_before(kVolumes), rc_after(kVolumes);
  {
    const auto cache = vm.cache_stats();
    for (const auto& row : cache.tenants) {
      for (std::size_t v = 0; v < kVolumes; ++v) {
        if (row.tenant == tenant(v)) rc_before[v] = row.result;
      }
    }
  }
  for (std::size_t v = 0; v < kVolumes; ++v) io_before[v] = vm.io_stats(tenant(v)).get();
  const storage::BlockCacheStats bc_before = vm.cache_stats().block;
  const auto loads_before = vm.shard_loads();

  // --- measured phase: clients on their own threads, this thread marks
  // the one-second windows (and switches the service's tracing with them).
  Windows win(args.seconds, args.trace);
  WindowFold fold(win.count, kClients);
  std::vector<ClientOut> out(kClients);
  const auto t_start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientOut& o = out[c];
      std::vector<double> lat;  // latencies of window lat_w, so far
      std::size_t lat_w = 0;
      const auto hand_in_before = [&](std::size_t w) {
        for (; lat_w < std::min(w, win.count); ++lat_w) {
          fold.hand_in(lat_w, lat);
          lat.clear();
        }
      };
      util::Rng rng(args.seed * 1000003 + c);
      std::vector<util::ZipfSampler> zipf;
      for (std::size_t v = 0; v < kVolumes; ++v)
        zipf.emplace_back(streams[v].max_block - 1, 1.1);
      std::uint64_t op = 0, write_turn = 0;
      std::uint64_t checks = 0;
      std::uint64_t unit = 22 * c;  // the clients half a cycle apart
      const auto query = [&](std::size_t v, core::BlockNo b) {
        const std::size_t w = win.current();
        hand_in_before(w);
        const auto t0 = Clock::now();
        const std::vector<core::BackrefEntry> answer = vm.query(names[v], b, 1).get();
        if (w < win.count) lat.push_back(static_cast<double>(nanos_since(t0)) / 1e3);
        ++o.queries;
        ++o.volume_queries[v];
        if (v < kReadOnly && ++checks % kCheckEvery == 0 && o.samples.size() < kMaxSamples) {
          Sample s{v, b, {}};
          append_tuples(answer, s.answer);
          std::sort(s.answer.begin(), s.answer.end());
          s.answer.erase(std::unique(s.answer.begin(), s.answer.end()),
                         s.answer.end());
          o.samples.push_back(std::move(s));
        }
      };
      const auto write = [&] {
        // Client c owns stale volumes kReadOnly + c and kReadOnly + c + 2.
        const std::size_t v = kReadOnly + c + 2 * (write_turn++ % 2);
        Trickle& tr = trickle[v];
        std::vector<service::UpdateOp> ops;
        for (std::uint64_t k = 0; k < kTricklePairs; ++k) {
          const std::uint64_t f = rng.below(kTrickleFiles);
          const core::BlockNo nb = 1 + rng.below(streams[v].max_block - 1);
          if (nb == tr.block[f]) continue;
          ops.push_back({core::Update::Kind::kRemove,
                         {tr.block[f], kTrickleInode + f, 0, 1, 0}});
          ops.push_back({core::Update::Kind::kAdd, {nb, kTrickleInode + f, 0, 1, 0}});
          tr.block[f] = nb;
        }
        o.write_ops += ops.size();
        vm.apply_batch(names[v], std::move(ops)).get();
        if (++tr.batches % kCpEvery == 0) {
          const auto c0 = Clock::now();
          const core::CpFlushStats cp = vm.consistency_point(names[v]).get();
          o.cp_us.push_back(static_cast<double>(nanos_since(c0)) / 1e3);
          o.cp_ops += cp.block_ops;
          o.cp_records += cp.records_flushed;
          o.cp_pages += cp.pages_written;
          ++o.cps;
          if (const Check ck = cp_pages_cover_records(cp.pages_written, cp.records_flushed,
                                                      core::kFromRecordSize);
              !ck.ok)
            o.errors.push_back("CP pages: " + ck.detail);
          if (const Check ck = records_within_ops(cp.records_flushed, cp.block_ops); !ck.ok)
            o.errors.push_back("CP records: " + ck.detail);
        }
      };
      while (win.current() < win.count) {
        // One unit: a sequential run of length L and L Zipf point queries,
        // on a read-only volume 3 times in 4. An even split would put the
        // median query right on the edge between the two kinds of volume.
        // Units cycle through the 11 lengths and the 4 slots together (44
        // units cover every pair), so every second holds about the same mix
        // whatever the seed; the volume, the start and the Zipf draws are
        // random.
        const std::uint64_t u = unit++;
        const std::size_t v = u % 4 != 3 ? rng.below(kReadOnly)
                                         : kReadOnly + rng.below(kVolumes - kReadOnly);
        const std::uint64_t len = 1ull << (u % 11);
        const std::uint64_t limit = streams[v].max_block;
        const core::BlockNo start = 1 + rng.below(limit > len + 1 ? limit - len - 1 : 1);
        for (std::uint64_t i = 0; i < 2 * len; ++i) {
          if (++op % kWriteEvery == 0) write();
          const core::BlockNo b =
              i < len ? start + i
                      : 1 + scatter(zipf[v].sample(rng)) % (limit - 1);
          query(v, b);
        }
      }
      hand_in_before(win.count);
    });
  }
  win.run(vm, t_start, args.trace);
  for (auto& t : clients) t.join();
  const double measured_s = seconds_since(t_start);
  const double rss_mb = peak_rss_mb();

  // --- gather counters --------------------------------------------------
  const storage::BlockCacheStats bc_after = vm.cache_stats().block;
  {
    const auto cache = vm.cache_stats();
    for (const auto& row : cache.tenants) {
      for (std::size_t v = 0; v < kVolumes; ++v) {
        if (row.tenant == tenant(v)) rc_after[v] = row.result;
      }
    }
  }
  const auto loads_after = vm.shard_loads();
  std::uint64_t queries = 0, write_ops = 0, cps = 0, cp_ops = 0, cp_records = 0,
                cp_pages = 0;
  std::vector<double> cp_us;
  std::vector<std::uint64_t> volume_queries(kVolumes);
  for (const ClientOut& o : out) {
    queries += o.queries;
    write_ops += o.write_ops;
    cps += o.cps;
    cp_ops += o.cp_ops;
    cp_records += o.cp_records;
    cp_pages += o.cp_pages;
    cp_us.insert(cp_us.end(), o.cp_us.begin(), o.cp_us.end());
    for (const std::string& e : o.errors) res.expect(false, "query-aged: " + e);
    for (std::size_t v = 0; v < kVolumes; ++v) volume_queries[v] += o.volume_queries[v];
  }
  std::uint64_t reads_ro = 0, reads_rw = 0, q_ro = 0, q_rw = 0, db_bytes = 0,
                data_bytes = 0, l0_runs = 0;
  for (std::size_t v = 0; v < kVolumes; ++v) {
    const storage::IoStats d = vm.io_stats(tenant(v)).get() - io_before[v];
    (v < kReadOnly ? reads_ro : reads_rw) += d.page_reads;
    (v < kReadOnly ? q_ro : q_rw) += volume_queries[v];
    db_bytes += vm.db_stats(tenant(v)).get().db_bytes;
    data_bytes += streams[v].data_bytes;
    l0_runs += vm.quick_stats(tenant(v)).get().l0_runs();
  }

  // --- checks -------------------------------------------------------------
  for (std::size_t v = 0; v < kVolumes; ++v) streams[v].truth = load_truth(files[v]);
  std::uint64_t sampled = 0;
  for (const ClientOut& o : out) {
    for (const Sample& s : o.samples) {
      ++sampled;
      if (const Check c = same_refs(truth_in_range(streams[s.volume].truth, s.block, 1),
                                    s.answer);
          !c.ok) {
        res.expect(false, "query-aged: answer on " + tenant(s.volume) + " block " +
                              std::to_string(s.block) + ": " + c.detail);
      }
    }
  }
  res.expect(sampled > 0, "query-aged: no read-only answer was sampled");
  const double rpq_ro = static_cast<double>(reads_ro) / static_cast<double>(q_ro);
  const double rpq_rw = static_cast<double>(reads_rw) / static_cast<double>(q_rw);
  if (const Check c = maintained_reads_no_more(rpq_ro, rpq_rw); !c.ok)
    res.expect(false, "query-aged: " + c.detail);
  for (std::size_t v = kReadOnly; v < kVolumes; ++v) {
    // Full scan of a written volume against its model: the aged images
    // (live heads now at the volume's current CP) plus the trickle files.
    const std::string t = tenant(v);
    core::Epoch cp_now = 0;
    std::vector<RefTuple> got;
    vm.with_db(t, [&](core::BacklogDb& db) {
        cp_now = db.current_cp();
        got = db_owner_tuples(db, streams[v].max_block);
      }).get();
    std::vector<RefTuple> want;
    for (RefTuple x : streams[v].truth) {
      if (std::get<4>(x) == streams[v].final_cp) std::get<4>(x) = cp_now;
      want.push_back(x);
    }
    for (std::uint64_t f = 0; f < kTrickleFiles; ++f)
      want.emplace_back(trickle[v].block[f], kTrickleInode + f, 0, 0, cp_now);
    std::sort(want.begin(), want.end());
    if (const Check c = same_refs(want, got); !c.ok)
      res.expect(false, "query-aged: full scan of " + t + ": " + c.detail);
  }
  res.attempted = queries + write_ops + cps;

  if (!args.trace) {
    // Medians over the one-second windows: a burst that slows one window
    // (a CP on a shard, the host's neighbours) moves one sample of many.
    std::vector<double> rates, p50, p99;
    for (const WindowFigures& f : fold.figures) {
      rates.push_back(f.queries);
      if (f.queries > 0) p50.push_back(f.p50_us);
      if (f.p99_resolved) p99.push_back(f.p99_us);
    }
    res.set("setup_s", setup_s, "s");
    res.set("peak_rss_mb", rss_mb, "MB");
    res.set("ops_per_s", median(rates), "ops/s");
    res.set("p50_us", median(p50), "us");
    if (!p99.empty()) res.set("p99_us", median(p99), "us");
    res.set("cp_pages_per_kop",
            1000.0 * static_cast<double>(cp_pages) / static_cast<double>(cp_ops),
            "pages/kop");
    res.set("backref_space_pct",
            100.0 * static_cast<double>(db_bytes) / static_cast<double>(data_bytes), "%");
    return res;
  }

  res.init_layers();
  // Traced windows price the layers; untraced ones the tracing itself.
  double rtt_sum = 0, traced_q = 0, plain_q = 0, traced_w = 0, plain_w = 0;
  for (std::size_t w = 0; w < win.count; ++w) {
    const WindowFigures& f = fold.figures[w];
    if (win.traced[w]) rtt_sum += f.sum_us;
    (win.traced[w] ? traced_q : plain_q) += f.queries;
    (win.traced[w] ? traced_w : plain_w) += 1;
  }
  // The round trip as the caller sees it, the query on the shard (the
  // service's own query_micros) and the wait from submit to running on the
  // shard (queue_wait_micros, every op stamped while tracing is on).
  const double rtt_us = rtt_sum / traced_q;
  const service::LatencyHistogram on_shard = win.traced_delta(&service::TenantStats::query_micros);
  const service::LatencyHistogram qwait =
      win.traced_delta(&service::TenantStats::queue_wait_micros);
  const double core_us = on_shard.mean_micros();
  const auto rc_ratio = [&](std::size_t lo, std::size_t hi) {
    std::uint64_t h = 0, m = 0;
    for (std::size_t v = lo; v < hi; ++v) {
      h += rc_after[v].hits - rc_before[v].hits;
      m += rc_after[v].misses - rc_before[v].misses;
    }
    return h + m == 0 ? 0.0 : static_cast<double>(h) / static_cast<double>(h + m);
  };
  std::uint64_t busy = 0;
  for (std::size_t s = 0; s < loads_after.size(); ++s)
    busy += loads_after[s].busy_micros - loads_before[s].busy_micros;
  const std::uint64_t bc_hits = bc_after.hits - bc_before.hits;
  const std::uint64_t bc_misses = bc_after.misses - bc_before.misses;
  res.layer("core.query.us", core_us);
  const double maintains = static_cast<double>(kVolumes);
  res.layer("core.maintain.pages_read", static_cast<double>(maint.stats.pages_read) / maintains);
  res.layer("core.maintain.pages_written",
            static_cast<double>(maint.stats.pages_written) / maintains);
  res.layer("core.maintain.purged_per_krec",
            1000.0 * static_cast<double>(maint.stats.purged) /
                static_cast<double>(maint.stats.input_records));
  res.layer("core.maintain.mb_per_s", median(maint.mb_per_s));
  res.layer("lsm.l0_runs_at_maintain", static_cast<double>(maint.l0_runs) / maintains);
  res.layer("core.cp.us_per_cp", median(cp_us));
  res.layer("core.cp.records_per_kop",
            1000.0 * static_cast<double>(cp_records) / static_cast<double>(cp_ops));
  res.layer("service.dispatch.us", rtt_us - core_us);
  res.layer("storage.env.page_reads_per_q",
            static_cast<double>(reads_ro + reads_rw) / static_cast<double>(queries));
  res.layer("storage.block_cache.hit_ratio",
            static_cast<double>(bc_hits) / static_cast<double>(bc_hits + bc_misses));
  res.layer("storage.block_cache.evictions_per_kq",
            1000.0 * static_cast<double>(bc_after.evictions - bc_before.evictions) /
                static_cast<double>(queries));
  res.layer("core.result_cache.hit_ratio_read_only", rc_ratio(0, kReadOnly));
  res.layer("core.result_cache.hit_ratio_written", rc_ratio(kReadOnly, kVolumes));
  res.layer("core.query.l0_runs", static_cast<double>(l0_runs) / kVolumes);
  res.layer("service.queue.wait_us_p99", static_cast<double>(qwait.p99()));
  res.layer("service.worker_pool.busy_fraction",
            static_cast<double>(busy) / 1e6 /
                (measured_s * static_cast<double>(loads_after.size())));
  // What no span covers: the submit path before the stamp and the
  // hand-back from the shard to the waiting caller.
  res.layer("budget.residual_pct", 100.0 * (rtt_us - qwait.mean_micros() - core_us) / rtt_us);
  res.layer("budget.trace_overhead_pct",
            100.0 * ((plain_q / plain_w) / (traced_q / traced_w) - 1.0));
  return res;
}

}  // namespace perfbench
