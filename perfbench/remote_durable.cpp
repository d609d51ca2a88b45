// remote-durable: what a remote tenant feels. A server is set up the way
// backlogd sets one up — VolumeManager with the WAL on and a 2 ms
// group-commit window, net::ServiceEndpoint on loopback — with 2 shards and
// 2 I/O threads. Four client connections, two per tenant, run a closed
// loop: each call is a copy-on-write apply_batch (remove a file block's old
// reference, add its new one), every 8th call a query_batch of the
// connection's own blocks, and on one connection per tenant every 512th
// batch a client-issued CP.
//
// The clients keep their own model of every acked add and remove. Queries
// must return the model's owners; at the end the raw scan of each tenant
// must equal the model, and must again after the server is dropped without
// a final CP and reopened on the same root, which replays the WAL.
#include <cstdio>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "net/client.hpp"
#include "net/handlers.hpp"
#include "service/service.hpp"
#include "util/random.hpp"
#include "windows.hpp"

namespace perfbench {

namespace core = backlog::core;
namespace net = backlog::net;
namespace service = backlog::service;
namespace storage = backlog::storage;
namespace util = backlog::util;

namespace {

constexpr std::size_t kTenants = 2;
constexpr std::size_t kConnections = 4;
constexpr std::uint32_t kCommitWindowUs = 2000;
constexpr std::uint64_t kPairs = 32;         // CoW pairs per batch: 64 ops
constexpr std::uint64_t kQueryEvery = 8;     // calls per query_batch
constexpr std::uint64_t kQueryRanges = 8;
constexpr std::uint64_t kCpEvery = 512;      // batches per client CP
constexpr std::uint64_t kPingEvery = 16;     // traced windows: calls per ping
constexpr std::uint64_t kWarmBatches = 128;  // set-up batches per connection

std::string tenant_of(std::size_t c) { return "tenant-" + std::to_string(c % kTenants); }

core::BackrefKey file_key(std::size_t c, std::uint64_t f, core::BlockNo b) {
  return {b, 1000 + c, f, 1, 0};
}

service::ServiceOptions server_options(const std::filesystem::path& root) {
  service::ServiceOptions so;
  so.shards = 2;
  so.root = root;
  so.wal_enabled = true;
  so.wal_commit_window_micros = kCommitWindowUs;
  return so;
}

struct Conn {
  std::vector<core::BlockNo> block;  ///< model: current block of each file
  std::uint64_t files = 0;           ///< one-block files of this connection
  std::uint64_t next_block = 0;      ///< blocks allocated so far
  std::uint64_t batches = 0, acked_ops = 0, queries = 0, cps = 0;
  std::uint64_t cp_ops = 0, cp_pages = 0, cp_records = 0;
  std::vector<std::vector<double>> batch_us;  ///< per window
  std::vector<double> query_us, ping_us, cp_us;
  std::vector<std::uint64_t> window_ops;      ///< acked ops per window
  std::vector<std::string> errors;

  /// A block never used before, scattered over the connection's region of
  /// 2^22 blocks (4 partitions): an odd multiplier permutes the region, so
  /// every CP touches the same partitions however far the run has got.
  core::BlockNo fresh_block(std::size_t c) {
    constexpr std::uint64_t kRegion = 1ull << 22;
    return (static_cast<core::BlockNo>(c + 1) << 22) +
           (next_block++ * 0x9E3779B97F4A7C15ull) % kRegion;
  }

  /// The next copy-on-write batch of connection `c`; the model moves with it.
  std::vector<service::UpdateOp> cow_batch(std::size_t c, util::Rng& rng) {
    std::vector<service::UpdateOp> ops;
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      const std::uint64_t f = rng.below(files);
      ops.push_back({core::Update::Kind::kRemove, file_key(c, f, block[f])});
      block[f] = fresh_block(c);
      ops.push_back({core::Update::Kind::kAdd, file_key(c, f, block[f])});
    }
    return ops;
  }
};

double metric_total(service::VolumeManager& vm, const char* name) {
  return vm.metrics().counter(name, "").total();
}

}  // namespace

Result run_remote_durable(const Args& args) {
  Result res;
  const std::filesystem::path root = args.workdir / "server";
  auto vm = std::make_unique<service::VolumeManager>(server_options(root));
  for (std::size_t t = 0; t < kTenants; ++t) vm->open_volume(tenant_of(t));
  auto endpoint = std::make_unique<net::ServiceEndpoint>(*vm);
  net::ServerOptions opts;
  opts.bind_address = "127.0.0.1";
  opts.port = 0;
  opts.io_threads = 2;
  endpoint->start(opts);

  std::vector<Conn> conns(kConnections);
  std::vector<net::Client> clients(kConnections);
  util::Rng sizes(args.seed * 131 + 7);
  std::uint64_t live_files = 0;
  for (std::size_t c = 0; c < kConnections; ++c) {
    Conn& k = conns[c];
    clients[c].connect("127.0.0.1", endpoint->port());
    k.files = 1000 + sizes.below(49);
    live_files += k.files;
    std::vector<service::UpdateOp> fill;
    for (std::uint64_t f = 0; f < k.files; ++f) {
      k.block.push_back(k.fresh_block(c));
      fill.push_back({core::Update::Kind::kAdd, file_key(c, f, k.block[f])});
    }
    clients[c].apply_batch(tenant_of(c), fill);
  }
  // Age the tenants with a fixed number of durable batches, so the timed
  // loop starts on warm WAL files and Level-0 runs rather than empty ones.
  {
    std::vector<std::thread> warm;
    for (std::size_t c = 0; c < kConnections; ++c) {
      warm.emplace_back([&, c] {
        util::Rng rng(args.seed * 31 + c);
        for (std::uint64_t b = 0; b < kWarmBatches; ++b)
          clients[c].apply_batch(tenant_of(c), conns[c].cow_batch(c, rng));
      });
    }
    for (auto& t : warm) t.join();
  }
  for (std::size_t t = 0; t < kTenants; ++t) clients[t].consistency_point(tenant_of(t));
  const double setup_s = seconds_since(process_start());

  Windows win(args.seconds, args.trace);
  const double wal_records0 = metric_total(*vm, "backlog_wal_records_total");
  const double wal_syncs0 = metric_total(*vm, "backlog_wal_syncs_total");
  storage::IoStats io0;
  for (std::size_t t = 0; t < kTenants; ++t) io0 += vm->io_stats(tenant_of(t)).get();
  const net::ServerStats net0 = endpoint->server().stats();
  const auto loads0 = vm->shard_loads();

  // --- measured phase: clients on their own threads, this thread marks
  // the one-second windows (and switches the service's tracing with them).
  const auto t_start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Conn& k = conns[c];
      net::Client& cl = clients[c];
      const std::string tenant = tenant_of(c);
      k.batch_us.resize(win.count);
      k.window_ops.resize(win.count);
      util::Rng rng(args.seed * 7777 + c);
      try {
        for (std::uint64_t call = 1;; ++call) {
          const std::size_t w = win.current();
          if (w >= win.count) break;
          if (win.traced[w] && call % kPingEvery == 0) {
            const auto p0 = Clock::now();
            cl.ping();
            k.ping_us.push_back(static_cast<double>(nanos_since(p0)) / 1e3);
          }
          if (call % kQueryEvery == 0) {
            std::vector<service::QueryRange> ranges;
            std::vector<std::uint64_t> files;
            for (std::uint64_t i = 0; i < kQueryRanges; ++i) {
              files.push_back(rng.below(k.files));
              ranges.push_back({k.block[files.back()], 1, {}});
            }
            const auto q0 = Clock::now();
            const auto answers = cl.query_batch(tenant, ranges);
            k.query_us.push_back(static_cast<double>(nanos_since(q0)) / 1e3);
            ++k.queries;
            for (std::uint64_t i = 0; i < kQueryRanges; ++i) {
              const core::BackrefKey want = file_key(c, files[i], k.block[files[i]]);
              if (answers[i].size() != 1 || answers[i][0].rec.key != want ||
                  answers[i][0].versions.empty())
                k.errors.push_back("query of block " + std::to_string(want.block) +
                                   " did not return its one acked owner");
            }
            continue;
          }
          const std::vector<service::UpdateOp> ops = k.cow_batch(c, rng);
          const auto b0 = Clock::now();
          cl.apply_batch(tenant, ops);
          k.batch_us[w].push_back(static_cast<double>(nanos_since(b0)) / 1e3);
          k.window_ops[w] += ops.size();
          k.acked_ops += ops.size();
          // One connection per tenant takes the CPs, so a tenant's CP
          // covers ~2 x kCpEvery batches whatever the connections' phase.
          // A CP stalls the batch in flight on the tenant's other
          // connection; at one CP per ~1,000 batches those stalls stay far
          // below the 1% that p99 looks at, instead of straddling it.
          if (++k.batches % kCpEvery == 0 && c < kTenants) {
            const auto c0 = Clock::now();
            const core::CpFlushStats cp = cl.consistency_point(tenant);
            k.cp_us.push_back(static_cast<double>(nanos_since(c0)) / 1e3);
            ++k.cps;
            k.cp_ops += cp.block_ops;
            k.cp_pages += cp.pages_written;
            k.cp_records += cp.records_flushed;
            if (const Check ck = cp_pages_cover_records(cp.pages_written, cp.records_flushed,
                                                        core::kFromRecordSize);
                !ck.ok)
              k.errors.push_back("CP pages: " + ck.detail);
            if (const Check ck = records_within_ops(cp.records_flushed, cp.block_ops); !ck.ok)
              k.errors.push_back("CP records: " + ck.detail);
          }
        }
      } catch (const std::exception& e) {
        k.errors.push_back(std::string("client: ") + e.what());
      }
    });
  }
  win.run(*vm, t_start, args.trace);
  for (auto& t : threads) t.join();
  const double measured_s = seconds_since(t_start);
  const double rss_mb = peak_rss_mb();

  // --- counters ------------------------------------------------------------
  const double wal_records = metric_total(*vm, "backlog_wal_records_total") - wal_records0;
  const double wal_syncs = metric_total(*vm, "backlog_wal_syncs_total") - wal_syncs0;
  storage::IoStats io;
  for (std::size_t t = 0; t < kTenants; ++t) io += vm->io_stats(tenant_of(t)).get();
  io = io - io0;
  const net::ServerStats net1 = endpoint->server().stats();
  const auto loads1 = vm->shard_loads();
  std::uint64_t batches = 0, acked = 0, queries = 0, cps = 0, cp_ops = 0, cp_pages = 0,
                cp_records = 0;
  for (Conn& k : conns) {
    batches += k.batches;
    acked += k.acked_ops;
    queries += k.queries;
    cps += k.cps;
    cp_ops += k.cp_ops;
    cp_pages += k.cp_pages;
    cp_records += k.cp_records;
    for (const std::string& e : k.errors) res.expect(false, "remote-durable: " + e);
  }
  res.attempted = batches + queries + cps;
  if (const Check c = wal_records_per_fsync(static_cast<std::uint64_t>(wal_records),
                                            static_cast<std::uint64_t>(wal_syncs),
                                            batches);
      !c.ok)
    res.expect(false, "remote-durable: group commit: " + c.detail);

  // --- end state: the scan equals the model, before and after a WAL replay
  const auto model_of = [&](std::size_t t) {
    std::vector<core::BackrefKey> keys;
    for (std::size_t c = t; c < kConnections; c += kTenants) {
      for (std::uint64_t f = 0; f < conns[c].files; ++f)
        keys.push_back(file_key(c, f, conns[c].block[f]));
    }
    return keys;
  };
  const auto check_scans = [&](const char* when) {
    for (std::size_t t = 0; t < kTenants; ++t) {
      if (const Check c = live_keys_match(model_of(t), vm->scan_all(tenant_of(t)).get());
          !c.ok)
        res.expect(false, std::string("remote-durable: scan ") + when + " of " +
                              tenant_of(t) + ": " + c.detail);
    }
  };
  check_scans("at the end");
  for (std::size_t t = 0; t < kTenants; ++t) {
    std::fprintf(stderr, "remote-durable: %s holds %llu Level-0 runs at the end\n",
                 tenant_of(t).c_str(),
                 static_cast<unsigned long long>(vm->quick_stats(tenant_of(t)).get().l0_runs()));
  }
  for (net::Client& cl : clients) cl.close();
  endpoint->stop();
  endpoint.reset();
  vm.reset();  // no close_volume: the updates since the last CP live in the WAL
  vm = std::make_unique<service::VolumeManager>(server_options(root));
  for (std::size_t t = 0; t < kTenants; ++t) vm->open_volume(tenant_of(t));
  res.expect(metric_total(*vm, "backlog_wal_replayed_ops_total") > 0,
             "remote-durable: reopening replayed no WAL records");
  check_scans("after reopening");
  std::uint64_t db_bytes = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    vm->consistency_point(tenant_of(t)).get();
    vm->maintain(tenant_of(t)).get();
    db_bytes += vm->db_stats(tenant_of(t)).get().db_bytes;
  }
  for (std::size_t t = 0; t < kTenants; ++t) vm->close_volume(tenant_of(t));

  if (!args.trace) {
    // Medians over two-second windows (about 1,500 batches each, so each
    // window's p99 has 15 samples beyond it): a burst on the host moves a
    // window or two, not the figure.
    std::vector<double> rates, p50, p99, all;
    for (std::size_t w = 0; w + 1 < win.count; w += 2) {
      std::vector<double> lat;
      double ops = 0;
      for (const Conn& k : conns) {
        for (std::size_t i = w; i < w + 2; ++i) {
          lat.insert(lat.end(), k.batch_us[i].begin(), k.batch_us[i].end());
          ops += static_cast<double>(k.window_ops[i]);
        }
      }
      rates.push_back(ops / 2.0);
      if (!lat.empty()) p50.push_back(quantile(lat, 0.50));
      if (tail_resolved(lat.size(), 0.99)) p99.push_back(quantile(lat, 0.99));
      all.insert(all.end(), lat.begin(), lat.end());
    }
    // On a host slow enough that no window holds 1,000 batches, the p99 of
    // the whole run stands in.
    if (p99.empty() && tail_resolved(all.size(), 0.99)) p99.push_back(quantile(all, 0.99));
    res.set("setup_s", setup_s, "s");
    res.set("peak_rss_mb", rss_mb, "MB");
    res.set("ops_per_s", median(rates), "ops/s");
    res.set("p50_us", median(p50), "us");
    if (!p99.empty()) res.set("p99_us", median(p99), "us");
    res.set("cp_pages_per_kop",
            1000.0 * static_cast<double>(cp_pages) / static_cast<double>(cp_ops),
            "pages/kop");
    res.set("backref_space_pct",
            100.0 * static_cast<double>(db_bytes) /
                static_cast<double>(live_files * 4096),
            "%");
    return res;
  }

  res.init_layers();
  // Per-window figures: traced windows price the layers, untraced ones the
  // tracing itself.
  std::vector<double> traced_lat;
  double traced_ops = 0, plain_ops = 0, traced_w = 0, plain_w = 0;
  for (std::size_t w = 0; w < win.count; ++w) {
    double ops = 0;
    for (const Conn& k : conns) ops += static_cast<double>(k.window_ops[w]);
    if (!win.traced[w]) {
      plain_ops += ops;
      plain_w += 1;
      continue;
    }
    traced_ops += ops;
    traced_w += 1;
    for (const Conn& k : conns)
      traced_lat.insert(traced_lat.end(), k.batch_us[w].begin(), k.batch_us[w].end());
  }
  const service::LatencyHistogram qwait =
      win.traced_delta(&service::TenantStats::queue_wait_micros);
  const service::LatencyHistogram exec =
      win.traced_delta(&service::TenantStats::update_batch_micros);
  std::vector<double> ping, query_us, cp_us;
  for (const Conn& k : conns) {
    ping.insert(ping.end(), k.ping_us.begin(), k.ping_us.end());
    cp_us.insert(cp_us.end(), k.cp_us.begin(), k.cp_us.end());
    query_us.insert(query_us.end(), k.query_us.begin(), k.query_us.end());
  }
  std::uint64_t busy = 0;
  for (std::size_t s = 0; s < loads1.size(); ++s)
    busy += loads1[s].busy_micros - loads0[s].busy_micros;
  const double fsync_us =
      static_cast<double>(io.fsync_micros) / static_cast<double>(io.fsyncs);
  double e2e = 0;
  for (const double x : traced_lat) e2e += x;
  e2e /= static_cast<double>(traced_lat.size());
  const double parts = median(ping) + qwait.mean_micros() + exec.mean_micros() + fsync_us;
  res.layer("core.cp.us_per_cp", median(cp_us));
  res.layer("core.cp.records_per_kop",
            1000.0 * static_cast<double>(cp_records) / static_cast<double>(cp_ops));
  res.layer("core.write_store.ns_per_op",
            1e3 * static_cast<double>(exec.sum_micros()) /
                (static_cast<double>(exec.count()) * 2 * kPairs));
  res.layer("core.wal.records_per_fsync", wal_records / wal_syncs);
  res.layer("storage.env.fsync_us", fsync_us);
  res.layer("service.queue.wait_us_p99", static_cast<double>(qwait.p99()));
  res.layer("service.worker_pool.busy_fraction",
            static_cast<double>(busy) / 1e6 /
                (measured_s * static_cast<double>(loads1.size())));
  res.layer("net.ping_rtt_us", median(ping));
  res.layer("net.server.bytes_per_op",
            static_cast<double>((net1.bytes_in - net0.bytes_in) +
                                (net1.bytes_out - net0.bytes_out)) /
                static_cast<double>(acked));
  res.layer("net.query_rtt_p50_us", quantile(query_us, 0.5));
  // The group-commit wait (a batch parked until its window's fsync) is in
  // no span yet, so it lands in the residual.
  res.layer("budget.residual_pct", 100.0 * (e2e - parts) / e2e);
  res.layer("budget.trace_overhead_pct",
            100.0 * ((plain_ops / plain_w) / (traced_ops / traced_w) - 1.0));
  return res;
}

}  // namespace perfbench
