// fs-age: the paper's §6.2.1 synthetic aging of one file system, replayed
// into a bare BacklogDb from one thread (Env sync off).
//
// The whole aging run is recorded with fsim in a child process before the
// program starts (input generation, not set-up). The measured phase then
// replays it into a fresh database, round after round, until the run's
// time is up; every round is the same work, so rounds are directly
// comparable and a run always attempts whole rounds. The first and the
// last round end with the checks: the owners of every block after the last
// CP, and again after the final maintenance, equal fsim's ground truth.
#include <cstdio>
#include <filesystem>

#include "aging.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "storage/env.hpp"

namespace perfbench {

namespace core = backlog::core;
namespace storage = backlog::storage;

namespace {

// CPs of 8,000 block writes (the paper's 32,000 / 4): a smaller CP is
// dominated by creating its run files, whose cost on a shared host swings
// far more from run to run than the flush itself.
constexpr std::uint64_t kOpsPerCp = 8000;
constexpr std::uint64_t kCps = 60;
constexpr std::uint64_t kMaintainEvery = 15;  // four maintenance cycles/round

/// Everything one replay round measured.
struct Round {
  bool traced = false;
  std::uint64_t block_ops = 0;
  std::uint64_t records = 0;
  std::uint64_t cp_pages = 0;
  std::uint64_t update_ns = 0;    ///< inside add/remove and CP calls
  std::uint64_t ws_ns = 0;        ///< traced: inside add/remove only
  std::uint64_t cp_ns = 0;        ///< traced: inside consistency_point only
  std::uint64_t maintain_ns = 0;
  std::uint64_t wall_ns = 0;      ///< events + updates + CPs + maintenance
  std::vector<double> cp_us;      ///< one per CP
  std::vector<double> window_rate;  ///< block ops/s of each CP window
  std::vector<double> maintain_mb_per_s;
  core::MaintenanceStats maint;   ///< summed over the round
  std::uint64_t maintains = 0;
  std::uint64_t l0_at_maintain = 0;
  std::uint64_t db_bytes = 0;
  std::uint64_t operations = 0;   ///< attempted: ops + events + CPs + maintains
};

Round replay(const AgedStream& s, const AgingSpec& spec,
             const std::filesystem::path& dir, bool traced, bool verify,
             Result& res) {
  std::filesystem::remove_all(dir);
  Round r;
  r.traced = traced;
  storage::Env env(dir);
  env.set_sync(false);
  core::BacklogDb db(env, aging_db_options(spec));

  const auto maintain = [&] {
    r.l0_at_maintain += db.quick_stats().l0_runs();
    const auto t0 = Clock::now();
    const core::MaintenanceStats m = db.maintain();
    const std::uint64_t ns = nanos_since(t0);
    r.maintain_ns += ns;
    r.maintain_mb_per_s.push_back(static_cast<double>(m.bytes_before) / 1e6 /
                                  (static_cast<double>(ns) / 1e9));
    r.maint.input_records += m.input_records;
    r.maint.purged += m.purged;
    r.maint.pages_read += m.pages_read;
    r.maint.pages_written += m.pages_written;
    ++r.maintains;
    ++r.operations;
  };

  const auto round_start = Clock::now();
  std::uint64_t verify_ns = 0;
  std::uint64_t step_no = 0;
  for (const AgingStep& step : s.steps) {
    if (!apply_events(db.registry(), step.before))
      res.expect(false, "fs-age: registry replay diverged from fsim");
    r.operations += step.before.size() + step.ops.size() + step.after.size() + 1;
    const auto t0 = Clock::now();
    for (const core::Update& op : step.ops) {
      if (op.kind == core::Update::Kind::kAdd) {
        db.add_reference(op.key);
      } else {
        db.remove_reference(op.key);
      }
    }
    const auto ta = Clock::now();
    if (!apply_events(db.registry(), step.after))
      res.expect(false, "fs-age: registry replay diverged from fsim");
    const auto t1 = Clock::now();
    const core::CpFlushStats cp = db.consistency_point();
    const auto t2 = Clock::now();
    r.update_ns += static_cast<std::uint64_t>((ta - t0 + t2 - t1).count());
    if (traced) {
      r.ws_ns += static_cast<std::uint64_t>((ta - t0).count());
      r.cp_ns += static_cast<std::uint64_t>((t2 - t1).count());
    }
    r.cp_us.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
    r.window_rate.push_back(static_cast<double>(cp.block_ops) /
                            std::chrono::duration<double>(ta - t0 + t2 - t1).count());
    r.block_ops += cp.block_ops;
    r.records += cp.records_flushed;
    r.cp_pages += cp.pages_written;
    if (const Check c = cp_pages_cover_records(cp.pages_written, cp.records_flushed,
                                               core::kFromRecordSize);
        !c.ok) {
      res.expect(false, "fs-age: CP pages: " + c.detail);
    }
    if (const Check c = records_within_ops(cp.records_flushed, cp.block_ops); !c.ok)
      res.expect(false, "fs-age: CP records: " + c.detail);

    if (++step_no == s.steps.size() && verify) {
      // After the last CP: the owners of every block match fsim's images.
      const auto tv = Clock::now();
      if (const Check c = same_refs(s.truth, db_owner_tuples(db, s.max_block)); !c.ok)
        res.expect(false, "fs-age: owners after the last CP: " + c.detail);
      verify_ns += nanos_since(tv);
    }
    if (step_no % kMaintainEvery == 0) maintain();
  }
  r.wall_ns = nanos_since(round_start) - verify_ns;
  if (verify) {
    if (const Check c = same_refs(s.truth, db_owner_tuples(db, s.max_block)); !c.ok)
      res.expect(false, "fs-age: owners after maintenance: " + c.detail);
  }
  r.db_bytes = db.stats().db_bytes;
  return r;
}

}  // namespace

Result run_fs_age(const Args& args) {
  AgingSpec spec;
  spec.seed = args.seed;
  spec.cps = kCps;
  spec.ops_per_cp = kOpsPerCp;
  spec.max_live_clones = 2;  // 4 clones a round, so 2 clone heads die
  const auto g0 = Clock::now();
  const AgedStream stream = load_stream(record_in_children({spec}, args.workdir, 1).front());
  const double input_s = seconds_since(g0);
  Result res;
  // The program's set-up is opening a database, done afresh by every
  // round; what is left here is the process start itself.
  const double setup_s = seconds_since(process_start()) - input_s;
  std::fprintf(stderr,
               "fs-age: inputs %.2f s, set-up %.2f s; recording of %llu block ops, %llu registry "
               "events, %zu ground-truth tuples, %.0f MB of data\n",
               input_s, setup_s, static_cast<unsigned long long>(stream.block_ops),
               static_cast<unsigned long long>(stream.registry_events),
               stream.truth.size(), static_cast<double>(stream.data_bytes) / 1e6);
  if (stream.steps.size() % kMaintainEvery != 0)
    res.expect(false, "fs-age: the last CP must be followed by maintenance");

  std::vector<Round> rounds;
  const auto t0 = Clock::now();
  for (bool final_round = false; !final_round;) {
    // The owners are checked in the first round and in the one expected to
    // end the run; every round replays the same input.
    const double elapsed = seconds_since(t0);
    const double per_round = rounds.empty() ? 0 : elapsed / static_cast<double>(rounds.size());
    final_round =
        elapsed + per_round >= args.seconds && (!args.trace || rounds.size() >= 1);
    // Traced runs alternate traced and untraced rounds of identical work,
    // which prices the tracing itself.
    const bool traced = args.trace && rounds.size() % 2 == 1;
    rounds.push_back(replay(stream, spec, args.workdir / "fs-age", traced,
                            rounds.empty() || final_round, res));
    res.attempted += rounds.back().operations;
    std::filesystem::remove_all(args.workdir / "fs-age");
  }

  const double rss_mb = peak_rss_mb();
  const Round& last = rounds.back();
  if (!args.trace) {
    // Medians over every CP window of every round: a slow spell of the
    // host moves a share of the samples, not the whole figure.
    std::vector<double> rates, cp_us;
    for (const Round& r : rounds) {
      rates.insert(rates.end(), r.window_rate.begin(), r.window_rate.end());
      cp_us.insert(cp_us.end(), r.cp_us.begin(), r.cp_us.end());
    }
    res.set("setup_s", setup_s, "s");
    res.set("peak_rss_mb", rss_mb, "MB");
    res.set("ops_per_s", median(rates), "ops/s");
    res.set("p50_us", quantile(cp_us, 0.50), "us");
    res.set("p99_us", quantile(cp_us, 0.99), "us");
    res.set("cp_pages_per_kop",
            1000.0 * static_cast<double>(last.cp_pages) /
                static_cast<double>(last.block_ops),
            "pages/kop");
    res.set("backref_space_pct",
            100.0 * static_cast<double>(last.db_bytes) /
                static_cast<double>(stream.data_bytes),
            "%");
    return res;
  }

  std::vector<double> traced_rate, plain_rate, ws_ns, cp_us, maint, residual;
  for (const Round& r : rounds) {
    const double rate = static_cast<double>(r.block_ops) /
                        (static_cast<double>(r.update_ns) / 1e9);
    (r.traced ? traced_rate : plain_rate).push_back(rate);
    if (!r.traced) continue;
    ws_ns.push_back(static_cast<double>(r.ws_ns) / static_cast<double>(r.block_ops));
    cp_us.push_back(static_cast<double>(r.cp_ns) / 1e3 / static_cast<double>(kCps));
    maint.insert(maint.end(), r.maintain_mb_per_s.begin(), r.maintain_mb_per_s.end());
    const double parts = static_cast<double>(r.ws_ns + r.cp_ns + r.maintain_ns);
    residual.push_back(100.0 * (static_cast<double>(r.wall_ns) - parts) /
                       static_cast<double>(r.wall_ns));
  }
  const Round& t = rounds[1];
  const double maintains = static_cast<double>(t.maintains);
  res.init_layers();
  res.layer("core.write_store.ns_per_op", median(ws_ns));
  res.layer("core.cp.us_per_cp", median(cp_us));
  res.layer("core.cp.records_per_kop",
            1000.0 * static_cast<double>(t.records) / static_cast<double>(t.block_ops));
  res.layer("core.maintain.pages_read", static_cast<double>(t.maint.pages_read) / maintains);
  res.layer("core.maintain.pages_written",
            static_cast<double>(t.maint.pages_written) / maintains);
  res.layer("core.maintain.purged_per_krec",
            1000.0 * static_cast<double>(t.maint.purged) /
                static_cast<double>(t.maint.input_records));
  res.layer("core.maintain.mb_per_s", median(maint));
  res.layer("lsm.l0_runs_at_maintain", static_cast<double>(t.l0_at_maintain) / maintains);
  res.layer("budget.residual_pct", median(residual));
  res.layer("budget.trace_overhead_pct",
            100.0 * (median(plain_rate) / median(traced_rate) - 1.0));
  return res;
}

}  // namespace perfbench
