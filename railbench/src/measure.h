// Process-level measurements and the result line the benchmark prints.
#ifndef RAILBENCH_MEASURE_H_
#define RAILBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "generator.h"

namespace railbench {

// Monotonic wall time in microseconds.
Micros NowMicros();
// Sleeps until the monotonic clock reads `deadline`.
void SleepUntil(Micros deadline);
// User + system CPU time of the whole process, in microseconds.
int64_t ProcessCpuMicros();
// Peak resident set size of the process, in MiB.
double PeakRssMb();
// Bytes of regular files under `dir`, recursively; only files whose path
// contains `part` when it is not empty.
uint64_t DirBytes(const std::string& dir, const std::string& part = "");
// Removes `dir` and everything under it, then creates it empty.
void ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);

// Nearest-rank percentile (p in [0, 100]) of unsorted samples; sorts
// them in place. 0 for an empty set.
double Percentile(std::vector<int64_t>* samples, double p);
double Median(std::vector<double> values);

// The last line of the benchmark's standard output.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  std::string ToJson() const;
};

}  // namespace railbench

#endif  // RAILBENCH_MEASURE_H_
