// The §6.2.1 synthetic aging workload, recorded once and replayed.
//
// fsim runs with a recording sink (no BacklogDb behind it), so generating
// the input costs the program nothing: the recording holds every
// add/remove callback, the consistency points, and the snapshot-registry
// events (snapshots taken and deleted, clones created, clone heads killed)
// diffed out of fsim's own registry after each CP. Replaying a recording
// into a fresh BacklogDb reproduces exactly the file system fsim aged, so
// the generator's images are the ground truth of the replayed database.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/backlog_db.hpp"
#include "fsim/verifier.hpp"

namespace perfbench {

using backlog::fsim::RefTuple;

struct RegistryEvent {
  enum class Kind : std::uint8_t { kSnapshot, kClone, kDeleteSnapshot, kKillLine };
  Kind kind = Kind::kSnapshot;
  backlog::core::LineId line = 0;       ///< the line acted on (new line for kClone)
  backlog::core::Epoch version = 0;     ///< snapshot version / clone branch point
  backlog::core::LineId parent = 0;     ///< kClone: the line cloned from
};

/// One CP window: registry events (clones made after the previous CP),
/// block-pointer callbacks, registry events at the end of the window
/// (snapshots), then the CP.
struct AgingStep {
  std::vector<RegistryEvent> before;
  std::vector<backlog::core::Update> ops;
  std::vector<RegistryEvent> after;
};

struct AgingSpec {
  std::uint64_t seed = 1;
  std::uint64_t cps = 200;
  std::uint64_t ops_per_cp = 2000;      ///< block writes per CP (paper/16)
  std::size_t max_live_files = 4000;
  std::uint64_t cps_per_clone = 14;     ///< ~7 clones per 100 CPs (§6.2.1)
  std::size_t max_live_clones = 4;      ///< the oldest clone head dies beyond
};

struct AgedStream {
  std::vector<AgingStep> steps;
  std::vector<RefTuple> truth;          ///< sorted ground truth at the end
  std::uint64_t data_bytes = 0;         ///< physical data at the end
  std::uint64_t max_block = 0;          ///< blocks [0, max_block) were used
  std::uint64_t block_ops = 0;          ///< add + remove callbacks in total
  std::uint64_t registry_events = 0;
  backlog::core::Epoch final_cp = 0;    ///< fsim's current CP at the end
};

/// fsim's §6.2.1 configuration: EECS03-like mix, 90% small files, 10%
/// dedup, 4 hourly + 4 nightly snapshots, a clone every cps_per_clone CPs.
/// Snapshots are taken at the end of a CP window, just before the CP: the
/// registry names a snapshot by the CP in progress, whose every write it
/// includes, while fsim copies its image at the call. Taken right after a
/// CP (fsim's SnapshotScheduler order in bench/fig5), the next window's
/// writes would land in the snapshot's version but not in its image.
AgedStream record_aging(const AgingSpec& spec);

/// Records every spec in a child process of its own, at most `jobs` at a
/// time; child i leaves its recording in dir/stream-<i>.bin and the paths
/// come back in spec order. Generating the inputs this way keeps fsim's
/// images out of this process's peak RSS. Call it before this process
/// starts a thread: a forked child holds only the forking thread.
std::vector<std::filesystem::path> record_in_children(const std::vector<AgingSpec>& specs,
                                                      const std::filesystem::path& dir,
                                                      std::size_t jobs);

/// Reads a recording written by record_in_children one step at a time, so
/// that only one CP window of the input is in memory while it is applied.
class StepReader {
 public:
  explicit StepReader(const std::filesystem::path& file);
  /// The recording's scalars (no steps, no ground truth).
  [[nodiscard]] const AgedStream& head() const { return head_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  /// The next step; false after the last.
  bool next(AgingStep& step);

 private:
  std::filesystem::path file_;
  std::ifstream f_;
  AgedStream head_;
  std::uint64_t steps_ = 0, left_ = 0;
};

/// The whole recording, steps and ground truth.
AgedStream load_stream(const std::filesystem::path& file);
/// The ground truth of a recording alone.
std::vector<RefTuple> load_truth(const std::filesystem::path& file);

/// Backlog options matching the recording's CP size (paper §5.1 at 1/16).
backlog::core::BacklogOptions aging_db_options(const AgingSpec& spec);

/// Apply one step's registry events; false when the registry hands out a
/// different line id or snapshot version than fsim's did.
bool apply_events(backlog::core::SnapshotRegistry& reg,
                  const std::vector<RegistryEvent>& events);

/// Masked, expanded owners of every block in [0, limit) as sorted tuples,
/// queried in chunks of `chunk` blocks — the database side of the check.
std::vector<RefTuple> db_owner_tuples(backlog::core::BacklogDb& db,
                                      std::uint64_t limit,
                                      std::uint64_t chunk = 256);

/// Append the per-block, per-version tuples of query answers to `out`.
void append_tuples(const std::vector<backlog::core::BackrefEntry>& entries,
                   std::vector<RefTuple>& out);

}  // namespace perfbench
