#include "aging.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <type_traits>

#include <sys/wait.h>
#include <unistd.h>

#include "fsim/backref_sink.hpp"
#include "fsim/fsim.hpp"
#include "fsim/workload.hpp"

namespace perfbench {

namespace core = backlog::core;
namespace fsim = backlog::fsim;

namespace {

/// Captures the callbacks fsim issues; each CP opens the next step.
class RecordingSink final : public fsim::BackrefSink {
 public:
  explicit RecordingSink(std::vector<AgingStep>& steps) : steps_(steps) {
    steps_.emplace_back();
  }
  void add_reference(const core::BackrefKey& key) override {
    steps_.back().ops.push_back({core::Update::Kind::kAdd, key});
  }
  void remove_reference(const core::BackrefKey& key) override {
    steps_.back().ops.push_back({core::Update::Kind::kRemove, key});
  }
  fsim::SinkCpStats on_consistency_point() override {
    steps_.emplace_back();
    return {};
  }
  [[nodiscard]] bool advances_cp() const override { return false; }
  [[nodiscard]] std::uint64_t db_bytes() const override { return 0; }

 private:
  std::vector<AgingStep>& steps_;
};

/// The registry mutations that turn `before` into `after`, in an order that
/// replays to the same state: snapshots (a clone may branch from one taken
/// in the same window), clones by ascending id (ids are handed out in
/// order), then deletions (a snapshot cloned and deleted becomes a zombie)
/// and killed heads.
std::vector<RegistryEvent> diff(const core::SnapshotRegistry& before,
                                const core::SnapshotRegistry& after) {
  using Kind = RegistryEvent::Kind;
  std::vector<RegistryEvent> snaps, clones, deletes, kills;
  for (const core::LineId line : after.lines()) {
    const bool existed = before.line_exists(line);
    if (!existed) {
      const auto parent = after.parent_of(line);
      if (!parent) throw std::logic_error("aging: new root line");
      clones.push_back({Kind::kClone, line, parent->branch_version, parent->parent});
    }
    const std::vector<core::Epoch> now = after.snapshots(line);
    const std::vector<core::Epoch> was =
        existed ? before.snapshots(line) : std::vector<core::Epoch>{};
    for (const core::Epoch v : now) {
      if (!std::binary_search(was.begin(), was.end(), v))
        snaps.push_back({Kind::kSnapshot, line, v, 0});
    }
    for (const core::Epoch v : was) {
      if (!std::binary_search(now.begin(), now.end(), v))
        deletes.push_back({Kind::kDeleteSnapshot, line, v, 0});
    }
    if (existed && before.line_live(line) && !after.line_live(line))
      kills.push_back({Kind::kKillLine, line, 0, 0});
  }
  std::vector<RegistryEvent> out = std::move(snaps);
  out.insert(out.end(), clones.begin(), clones.end());
  out.insert(out.end(), deletes.begin(), deletes.end());
  out.insert(out.end(), kills.begin(), kills.end());
  return out;
}

template <class T>
void put(std::ofstream& f, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t n = v.size();
  f.write(reinterpret_cast<const char*>(&n), sizeof n);
  f.write(reinterpret_cast<const char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
}

template <class T>
void get(std::ifstream& f, std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::uint64_t n = 0;
  f.read(reinterpret_cast<char*>(&n), sizeof n);
  v.resize(n);
  f.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
}

template <class T>
void skip(std::ifstream& f) {
  std::uint64_t n = 0;
  f.read(reinterpret_cast<char*>(&n), sizeof n);
  f.seekg(static_cast<std::streamoff>(n * sizeof(T)), std::ios::cur);
}

using FlatTuple = std::array<std::uint64_t, 5>;

// A recording on disk: the header, the ground truth, then the steps, so
// that either can be read without holding the other.

void save_stream(const AgedStream& s, const std::filesystem::path& file) {
  std::ofstream f(file, std::ios::binary | std::ios::trunc);
  put(f, std::vector<std::uint64_t>{s.steps.size(), s.data_bytes, s.max_block, s.block_ops,
                                    s.registry_events, s.final_cp});
  std::vector<FlatTuple> truth;
  truth.reserve(s.truth.size());
  for (const RefTuple& t : s.truth)
    truth.push_back({std::get<0>(t), std::get<1>(t), std::get<2>(t), std::get<3>(t),
                     std::get<4>(t)});
  put(f, truth);
  for (const AgingStep& step : s.steps) {
    put(f, step.before);
    put(f, step.ops);
    put(f, step.after);
  }
  if (!f.flush()) throw std::runtime_error("aging: cannot write " + file.string());
}

}  // namespace

std::vector<std::filesystem::path> record_in_children(const std::vector<AgingSpec>& specs,
                                                      const std::filesystem::path& dir,
                                                      std::size_t jobs) {
  std::vector<std::filesystem::path> files;
  std::size_t running = 0, failed = 0;
  const auto reap_one = [&] {
    int status = 0;
    if (::wait(&status) < 0) throw std::runtime_error("aging: wait failed");
    --running;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failed;
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    files.push_back(dir / ("stream-" + std::to_string(i) + ".bin"));
    if (running == jobs) reap_one();
    const pid_t pid = ::fork();
    if (pid < 0) {
      while (running > 0) reap_one();
      throw std::runtime_error("aging: fork failed");
    }
    if (pid == 0) {
      int code = 0;
      try {
        save_stream(record_aging(specs[i]), files.back());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "aging: recording %zu: %s\n", i, e.what());
        code = 1;
      }
      ::_exit(code);
    }
    ++running;
  }
  while (running > 0) reap_one();
  if (failed > 0) throw std::runtime_error("aging: a recording process failed");
  return files;
}

StepReader::StepReader(const std::filesystem::path& file)
    : file_(file), f_(file, std::ios::binary) {
  std::vector<std::uint64_t> head;
  get(f_, head);
  if (head.size() != 6) throw std::runtime_error("aging: bad recording " + file.string());
  steps_ = left_ = head[0];
  head_.data_bytes = head[1];
  head_.max_block = head[2];
  head_.block_ops = head[3];
  head_.registry_events = head[4];
  head_.final_cp = head[5];
  skip<FlatTuple>(f_);
}

bool StepReader::next(AgingStep& step) {
  if (left_ == 0) return false;
  --left_;
  get(f_, step.before);
  get(f_, step.ops);
  get(f_, step.after);
  if (!f_) throw std::runtime_error("aging: truncated recording " + file_.string());
  return true;
}

AgedStream load_stream(const std::filesystem::path& file) {
  StepReader r(file);
  AgedStream s = r.head();
  for (AgingStep step; r.next(step);) s.steps.push_back(std::move(step));
  s.truth = load_truth(file);
  return s;
}

std::vector<RefTuple> load_truth(const std::filesystem::path& file) {
  std::ifstream f(file, std::ios::binary);
  skip<std::uint64_t>(f);
  std::vector<FlatTuple> flat;
  get(f, flat);
  if (!f) throw std::runtime_error("aging: truncated recording " + file.string());
  std::vector<RefTuple> truth;
  truth.reserve(flat.size());
  for (const FlatTuple& t : flat) truth.emplace_back(t[0], t[1], t[2], t[3], t[4]);
  return truth;
}

core::BacklogOptions aging_db_options(const AgingSpec& spec) {
  core::BacklogOptions o;
  o.expected_ops_per_cp = spec.ops_per_cp;
  o.bloom_max_bytes = 32 * 1024;
  o.combined_bloom_max_bytes = 1024 * 1024;
  o.cache_pages = 8192;  // 32 MB (§6.1)
  return o;
}

AgedStream record_aging(const AgingSpec& spec) {
  AgedStream out;
  RecordingSink sink(out.steps);
  fsim::FsimOptions fo;
  fo.ops_per_cp = spec.ops_per_cp;
  fo.cp_interval_seconds = 10.0;
  fo.dedup_fraction = 0.10;
  fo.dedup_zipf_alpha = 1.15;
  fo.rng_seed = spec.seed;
  fsim::FileSystem fs(fo, sink);

  fsim::WorkloadOptions wl;
  wl.seed = spec.seed * 7919 + 1;
  wl.max_live_files = spec.max_live_files;
  fsim::WorkloadGenerator gen(fs, 0, wl);
  fsim::SnapshotPolicy sp;  // 4 hourly (every 6 CPs) + 4 nightly (every 48)
  fsim::SnapshotScheduler snaps(fs, 0, sp);
  // Clones come at a fixed cadence: deleting a clone head
  // removes every reference it holds, so with a random cadence the number
  // of those bursts — most of a recording's callbacks — would swing the
  // size of the input from seed to seed.
  fsim::ClonePolicy cp;
  cp.clones_per_cp = 1.0;
  cp.max_live_clones = spec.max_live_clones;
  cp.seed = spec.seed * 104729 + 3;
  fsim::CloneChurner clones(fs, 0, cp, wl);

  core::SnapshotRegistry seen = fs.registry();
  const auto events_since = [&] {
    std::vector<RegistryEvent> e = diff(seen, fs.registry());
    seen = fs.registry();
    return e;
  };
  for (std::uint64_t i = 1; i <= spec.cps; ++i) {
    gen.run_block_writes(spec.ops_per_cp);
    snaps.on_cp(i);
    out.steps.back().after = events_since();
    fs.consistency_point();
    if (i == spec.cps) break;  // end on a CP, exactly where fsim's images stand
    if (i % spec.cps_per_clone == 0) clones.on_cp(snaps.hourly());
    out.steps.back().before = events_since();
  }
  out.steps.pop_back();  // the empty window opened by the last CP

  for (const AgingStep& s : out.steps) {
    out.block_ops += s.ops.size();
    out.registry_events += s.before.size() + s.after.size();
  }
  const std::set<RefTuple> truth = fsim::ground_truth_refs(fs);
  out.truth.assign(truth.begin(), truth.end());
  out.data_bytes = fs.stats().data_bytes();
  out.max_block = fs.max_block();
  out.final_cp = fs.current_cp();
  return out;
}

bool apply_events(core::SnapshotRegistry& reg,
                  const std::vector<RegistryEvent>& events) {
  using Kind = RegistryEvent::Kind;
  bool same = true;
  for (const RegistryEvent& e : events) {
    switch (e.kind) {
      case Kind::kSnapshot:
        same &= reg.take_snapshot(e.line) == e.version;
        break;
      case Kind::kClone:
        same &= reg.create_clone(e.parent, e.version) == e.line;
        break;
      case Kind::kDeleteSnapshot:
        reg.delete_snapshot(e.line, e.version);
        break;
      case Kind::kKillLine:
        reg.kill_line(e.line);
        break;
    }
  }
  return same;
}

void append_tuples(const std::vector<core::BackrefEntry>& entries,
                   std::vector<RefTuple>& out) {
  for (const core::BackrefEntry& e : entries) {
    for (std::uint64_t i = 0; i < e.rec.key.length; ++i) {
      for (const core::Epoch v : e.versions) {
        out.emplace_back(e.rec.key.block + i, e.rec.key.inode,
                         e.rec.key.offset + i, e.rec.key.line, v);
      }
    }
  }
}

std::vector<RefTuple> db_owner_tuples(core::BacklogDb& db, std::uint64_t limit,
                                      std::uint64_t chunk) {
  std::vector<RefTuple> out;
  for (core::BlockNo b = 0; b < limit; b += chunk) {
    append_tuples(db.query(b, std::min(chunk, limit - b)), out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace perfbench
