#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace perfbench {

namespace core = backlog::core;

namespace {

std::string render(const RefTuple& t) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "(block %llu, inode %llu, offset %llu, line %llu, version %llu)",
                static_cast<unsigned long long>(std::get<0>(t)),
                static_cast<unsigned long long>(std::get<1>(t)),
                static_cast<unsigned long long>(std::get<2>(t)),
                static_cast<unsigned long long>(std::get<3>(t)),
                static_cast<unsigned long long>(std::get<4>(t)));
  return buf;
}

std::string render(const core::BackrefKey& k) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "(block %llu, inode %llu, offset %llu, line %llu)",
                static_cast<unsigned long long>(k.block),
                static_cast<unsigned long long>(k.inode),
                static_cast<unsigned long long>(k.offset),
                static_cast<unsigned long long>(k.line));
  return buf;
}

Check fail(std::string detail) { return {false, std::move(detail)}; }

}  // namespace

Check same_refs(const std::vector<RefTuple>& truth,
                const std::vector<RefTuple>& got) {
  std::vector<RefTuple> missing, spurious;
  std::set_difference(truth.begin(), truth.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), truth.begin(), truth.end(),
                      std::back_inserter(spurious));
  if (missing.empty() && spurious.empty()) return {};
  std::string d = std::to_string(missing.size()) + " missing, " +
                  std::to_string(spurious.size()) + " spurious";
  if (!missing.empty()) d += "; first missing " + render(missing.front());
  if (!spurious.empty()) d += "; first spurious " + render(spurious.front());
  return fail(d);
}

std::vector<RefTuple> truth_in_range(const std::vector<RefTuple>& truth,
                                     core::BlockNo first, std::uint64_t count) {
  const auto begin =
      std::lower_bound(truth.begin(), truth.end(), RefTuple{first, 0, 0, 0, 0});
  const auto end = std::lower_bound(begin, truth.end(),
                                    RefTuple{first + count, 0, 0, 0, 0});
  return {begin, end};
}

Check cp_pages_cover_records(std::uint64_t pages_written,
                             std::uint64_t records_flushed,
                             std::uint64_t record_size) {
  if (pages_written * 4096 >= records_flushed * record_size) return {};
  return fail(std::to_string(pages_written) + " pages written for " +
              std::to_string(records_flushed) + " records of " +
              std::to_string(record_size) + " bytes");
}

Check records_within_ops(std::uint64_t records_flushed,
                         std::uint64_t block_ops) {
  if (records_flushed <= block_ops) return {};
  return fail(std::to_string(records_flushed) + " records flushed for " +
              std::to_string(block_ops) + " block ops");
}

Check maintained_reads_no_more(double maintained_reads_per_query,
                               double stale_reads_per_query) {
  if (maintained_reads_per_query <= stale_reads_per_query) return {};
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "maintained volumes read %.4f pages/query, stale ones %.4f",
                maintained_reads_per_query, stale_reads_per_query);
  return fail(buf);
}

Check live_keys_match(const std::vector<core::BackrefKey>& model,
                      const std::vector<core::CombinedRecord>& scan) {
  std::vector<core::BackrefKey> live, dead;
  for (const core::CombinedRecord& r : scan) {
    (r.complete() ? dead : live).push_back(r.key);
  }
  std::vector<core::BackrefKey> want = model;
  std::sort(want.begin(), want.end());
  std::sort(live.begin(), live.end());
  std::vector<core::BackrefKey> missing, spurious, resurrected;
  std::set_difference(want.begin(), want.end(), live.begin(), live.end(),
                      std::back_inserter(missing));
  std::set_difference(live.begin(), live.end(), want.begin(), want.end(),
                      std::back_inserter(spurious));
  for (const core::BackrefKey& k : dead) {
    if (std::binary_search(want.begin(), want.end(), k)) resurrected.push_back(k);
  }
  if (missing.empty() && spurious.empty() && resurrected.empty()) return {};
  std::string d = std::to_string(missing.size()) + " acked keys missing, " +
                  std::to_string(spurious.size()) + " live keys not acked, " +
                  std::to_string(resurrected.size()) + " acked keys dead";
  if (!missing.empty()) d += "; first missing " + render(missing.front());
  if (!spurious.empty()) d += "; first spurious " + render(spurious.front());
  return fail(d);
}

Check wal_records_per_fsync(std::uint64_t wal_records, std::uint64_t fsyncs,
                            std::uint64_t batches) {
  if (fsyncs >= 1 && wal_records >= fsyncs && wal_records <= batches) return {};
  return fail(std::to_string(wal_records) + " WAL records, " +
              std::to_string(fsyncs) + " fsyncs, " + std::to_string(batches) +
              " batches");
}

}  // namespace perfbench
