// Output checks of the benchmark. Each compares the program's output with a
// model the benchmark built on its own (the generator's file-system images,
// the client's record of acked writes) or tests a property the method must
// have; none compares against a stored copy of earlier output. They are
// plain functions over plain data so that selftest.cpp can feed each one a
// corrupted input and show that it fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/backref_record.hpp"
#include "fsim/verifier.hpp"

namespace perfbench {

using backlog::fsim::RefTuple;

struct Check {
  bool ok = true;
  std::string detail;  ///< what differed, for the failure message
};

/// `got` equals `truth` (both sorted, duplicate-free).
Check same_refs(const std::vector<RefTuple>& truth,
                const std::vector<RefTuple>& got);

/// The tuples of `truth` (sorted) whose block lies in [first, first+count).
std::vector<RefTuple> truth_in_range(const std::vector<RefTuple>& truth,
                                     backlog::core::BlockNo first,
                                     std::uint64_t count);

/// A CP cannot write fewer 4 KB pages than the records it flushed occupy.
Check cp_pages_cover_records(std::uint64_t pages_written,
                             std::uint64_t records_flushed,
                             std::uint64_t record_size);

/// Within-CP pruning can only drop records: never more than block ops.
Check records_within_ops(std::uint64_t records_flushed,
                         std::uint64_t block_ops);

/// Fig. 9: a freshly maintained volume reads no more pages per query than
/// a stale one.
Check maintained_reads_no_more(double maintained_reads_per_query,
                               double stale_reads_per_query);

/// The live records of a raw scan (to == infinity) carry exactly the keys
/// of the client's model, and no dead record carries a key the model holds.
Check live_keys_match(const std::vector<backlog::core::BackrefKey>& model,
                      const std::vector<backlog::core::CombinedRecord>& scan);

/// Group commit: every fsync covers at least one WAL record, and there are
/// no more records than acked batches.
Check wal_records_per_fsync(std::uint64_t wal_records, std::uint64_t fsyncs,
                            std::uint64_t batches);

}  // namespace perfbench
