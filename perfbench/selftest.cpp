// Self-test of the benchmark's output checks: each check must pass on clean
// program output and fail once that output, or its model, is corrupted —
// one answer altered, one acked key dropped, one ground-truth block
// shifted. Run with `python3 perfbench/run.py --selftest`; exits 1 when a
// check fails to tell clean from corrupted input.
#include <cstdio>
#include <filesystem>
#include <string>

#include "aging.hpp"
#include "checks.hpp"
#include "storage/env.hpp"

using namespace perfbench;
namespace core = backlog::core;
namespace storage = backlog::storage;

namespace {

int failures = 0;

void expect(const char* what, const Check& c, bool want_ok) {
  const bool good = c.ok == want_ok;
  if (!good) ++failures;
  std::printf("%-4s %-58s %s%s\n", good ? "ok" : "BAD", what,
              c.ok ? "passes" : "fails: ", c.detail.c_str());
}

}  // namespace

int main() {
  const std::filesystem::path dir = std::filesystem::path(".bench_run") / "selftest";
  std::filesystem::remove_all(dir);

  // A small aged file system, replayed the way fs-age replays it.
  AgingSpec spec;
  spec.seed = 7;
  spec.cps = 24;
  spec.ops_per_cp = 300;
  spec.max_live_files = 300;
  const AgedStream s = record_aging(spec);
  std::vector<core::CombinedRecord> scan;
  std::vector<RefTuple> owners;
  {
    storage::Env env(dir);
    env.set_sync(false);
    core::BacklogDb db(env, aging_db_options(spec));
    for (const AgingStep& step : s.steps) {
      apply_events(db.registry(), step.before);
      db.apply_many(step.ops);
      apply_events(db.registry(), step.after);
      db.consistency_point();
    }
    owners = db_owner_tuples(db, s.max_block);
  }
  std::filesystem::remove_all(dir);

  expect("owners equal the generator's ground truth", same_refs(s.truth, owners), true);
  {
    std::vector<RefTuple> bad = owners;
    std::get<1>(bad[bad.size() / 2]) += 1;  // one answer names another inode
    std::sort(bad.begin(), bad.end());
    expect("... one corrupted answer", same_refs(s.truth, bad), false);
  }
  {
    std::vector<RefTuple> bad = s.truth;
    std::get<0>(bad[bad.size() / 3]) += 1;  // one ground-truth block shifted
    std::sort(bad.begin(), bad.end());
    expect("... one shifted ground-truth block", same_refs(bad, owners), false);
  }
  {
    const core::BlockNo b = std::get<0>(s.truth[s.truth.size() / 2]);
    const std::vector<RefTuple> in = truth_in_range(s.truth, b, 1);
    bool all_in = !in.empty();
    for (const RefTuple& t : in) all_in &= std::get<0>(t) == b;
    expect("truth_in_range keeps exactly one block", {all_in, ""}, true);
  }

  // The remote-durable model check on a raw scan.
  {
    storage::Env env(dir);
    env.set_sync(false);
    core::BacklogDb db(env, {});
    std::vector<core::BackrefKey> model;
    for (core::BlockNo b = 1; b <= 64; ++b) {
      model.push_back({b, 1000, b, 1, 0});
      db.add_reference(model.back());
    }
    db.consistency_point();
    db.remove_reference(model[5]);  // copy-on-write: block 6 moves to 65
    model[5] = {65, 1000, 6, 1, 0};
    db.add_reference(model[5]);
    db.consistency_point();
    scan = db.scan_all();
    expect("scan equals the acked model", live_keys_match(model, scan), true);
    std::vector<core::BackrefKey> dropped = model;
    dropped.erase(dropped.begin() + 17);  // one acked key lost
    expect("... scan against a model missing one acked key",
           live_keys_match(dropped, scan), false);
    std::vector<core::BackrefKey> stale = model;
    stale[5] = {6, 1000, 6, 1, 0};  // the removed reference still expected
    expect("... model still holding a removed key", live_keys_match(stale, scan), false);
  }
  std::filesystem::remove_all(dir);

  expect("CP pages cover 10 records", cp_pages_cover_records(1, 10, 48), true);
  expect("... one page for 100 records", cp_pages_cover_records(1, 100, 48), false);
  expect("records within block ops", records_within_ops(4, 4), true);
  expect("... more records than ops", records_within_ops(5, 4), false);
  expect("maintained volumes read less", maintained_reads_no_more(0.5, 1.5), true);
  expect("... maintained volumes read more", maintained_reads_no_more(2.0, 1.0), false);
  expect("10 WAL records over 5 fsyncs, 20 batches", wal_records_per_fsync(10, 5, 20), true);
  expect("... no fsync at all", wal_records_per_fsync(10, 0, 20), false);
  expect("... more records than batches", wal_records_per_fsync(30, 5, 20), false);
  expect("... fewer records than fsyncs", wal_records_per_fsync(3, 5, 20), false);

  std::printf("%s: %d check(s) misjudged\n", failures ? "FAIL" : "PASS", failures);
  return failures ? 1 : 0;
}
