// railbench: one workload of the Railgun benchmark per process.
//
//   railbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--dir <data dir>] [--rate <events/s>]
//
// Prints "# " information lines, then as its last line one JSON object
// with correct / attempted / failed and the metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
// --rate overrides the open-loop rate (for capacity sweeps only).
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "measure.h"
#include "oracle.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "railbench: %s\n", why);
  std::fprintf(stderr,
               "usage: railbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--dir <path>] [--rate <events/s>]\n"
               "workloads:");
  for (const std::string& name : railbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

// Confines the process, and every thread it will start, to one CPU: the
// last it may run on. On a shared virtual machine an engine spread over
// several vCPUs waits on the host to schedule an idle vCPU at every
// thread hand-off; measured on 4 vCPUs, that halved closed-loop
// throughput and made it swing by a third between runs, while on one
// CPU it ran twice as fast and repeated within a few percent.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

int main(int argc, char** argv) {
  railbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      options.dir = value;
    } else if (flag == "--rate") {
      options.rate = std::atof(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (railbench::FindWorkload(options.workload) == nullptr) {
    return Usage("unknown workload");
  }
  if (options.seconds < 1 || options.seconds > 120) {
    return Usage("--seconds must be 1..120");
  }
  if (options.dir.empty()) options.dir = ".bench_run/" + options.workload;

  const std::string self_check = railbench::Oracle::SelfCheck();
  if (!self_check.empty()) {
    std::fprintf(stderr, "railbench: %s\n", self_check.c_str());
    return 1;
  }

  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "railbench: could not pin to one CPU\n");
    return 1;
  }
  std::printf("# running on CPU %d\n", cpu);

  railbench::Report report;
  if (!railbench::RunWorkload(options, &report)) return 1;
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
