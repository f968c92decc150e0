#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

namespace railbench {

Micros NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(Micros deadline) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::microseconds(deadline)));
}

int64_t ProcessCpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto micros = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir, const std::string& part) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec) &&
        it->path().string().find(part) != std::string::npos) {
      const uintmax_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

void ResetDir(const std::string& dir) {
  RemoveDir(dir);
  std::filesystem::create_directories(dir);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

double Percentile(std::vector<int64_t>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  return static_cast<double>((*samples)[rank - 1]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = metrics[i].second.first;
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace railbench
