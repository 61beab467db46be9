// perfbench — the FAST benchmark program.
//
//   perfbench --workload search|ingest|image|serve --seed N --seconds S
//             --trace 0|1 [--server-bin PATH] [--work-dir DIR]
//             [--slo-p50-ms MS] [--sha SHA] [--inject wrong_answer|lost_write]
//
// Prints key=value context lines (host, CPUs, build type, source sha,
// thread budget, per-workload detail), then as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when any
// correctness check fails, 2 on bad usage or a non-Release build.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload search|ingest|image|serve "
               "--seed N --seconds S --trace 0|1 [--server-bin PATH]\n"
               "                 [--work-dir DIR] [--slo-p50-ms MS] "
               "[--sha SHA] [--inject wrong_answer|lost_write]\n");
  return 2;
}

/// Ids of the CPUs this process may run on.
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure an assert-enabled "
                       "build; build with CMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  if (std::strcmp(FAST_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build\n",
                 FAST_PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Options opts;
  opts.cpus = usable_cpus();
  opts.nproc = opts.cpus.size();
  std::string sha = "unknown";
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || opts.seconds <= 0) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      opts.trace = value == "1";
      have_trace = true;
    } else if (flag == "--server-bin") {
      opts.server_bin = value;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--slo-p50-ms") {
      opts.slo_p50_ms = std::strtod(value.c_str(), &end);
      if (*end != '\0' || opts.slo_p50_ms <= 0) return usage();
    } else if (flag == "--sha") {
      sha = value;
    } else if (flag == "--inject") {
      if (value != "wrong_answer" && value != "lost_write") return usage();
      opts.inject = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_trace) return usage();

  Report (*run)(const Options&) = nullptr;
  if (opts.workload == "search") run = run_search;
  if (opts.workload == "ingest") run = run_ingest;
  if (opts.workload == "image") run = run_image;
  if (opts.workload == "serve") run = run_serve;
  if (run == nullptr) return usage();

  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);
  std::printf("perfbench: workload=%s seed=%llu seconds=%s trace=%d "
              "host=%s nproc=%zu build=%s sha=%s\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              fmt(opts.seconds).c_str(), opts.trace ? 1 : 0, host, opts.nproc,
              FAST_PERFBENCH_BUILD_TYPE, sha.c_str());
  std::fflush(stdout);

  Report report;
  try {
    report = run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& line : report.notes()) {
    std::printf("perfbench: %s\n", line.c_str());
  }
  for (const auto& v : report.violations()) {
    std::printf("perfbench: VIOLATION %s\n", v.c_str());
    std::fprintf(stderr, "perfbench: VIOLATION %s\n", v.c_str());
  }
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
