// perfbench — one workload per process; see README.md.
//
//   perfbench --workload fs-age|query-aged|remote-durable --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// Prints progress and check failures on stderr and, as the last line of
// stdout, one JSON object: correct, attempted, failed and the metrics
// (end-to-end with --trace 0, per-layer with --trace 1). Exits 1 when an
// output check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "common.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fs-age|query-aged|remote-durable "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  process_start() = Clock::now();
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--workdir") {
      args.workdir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return usage();
  if (args.workdir.empty()) {
    args.workdir = std::filesystem::path(".bench_run") /
                   (args.workload + "-" + std::to_string(::getpid()));
  }

  Result res;
  try {
    std::filesystem::remove_all(args.workdir);
    std::filesystem::create_directories(args.workdir);
    if (args.workload == "fs-age") {
      res = run_fs_age(args);
    } else if (args.workload == "query-aged") {
      res = run_query_aged(args);
    } else if (args.workload == "remote-durable") {
      res = run_remote_durable(args);
    } else {
      return usage();
    }
    std::filesystem::remove_all(args.workdir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(args.workdir);
    return 1;
  }
  for (const std::string& f : res.check_failures)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  print_result(res);
  return res.check_failures.empty() ? 0 : 1;
}
