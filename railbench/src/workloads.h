// The benchmark's workloads (see README.md for why each exists).
#ifndef RAILBENCH_WORKLOADS_H_
#define RAILBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "oracle.h"

namespace railbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dir;   // The run's data directory (wiped first).
  double rate = 0;   // Open-loop rate override; 0 keeps the workload's.
};

struct WorkloadSpec {
  std::string name;
  bool remote = false;     // Client attaches over loopback TCP.
  bool open_loop = false;  // Fixed-rate schedule instead of closed loop.
  int units = 2;
  int partitions = 4;
  // Bare SELECT statements; the client runs each as ADD METRIC.
  std::vector<std::string> selects;
  std::vector<OracleMetric> oracle;
  // Reservoir overrides; 0 keeps the engine default.
  size_t chunk_target_bytes = 0;
  size_t cache_capacity = 0;
  // Closed loop: peak_rss_mb and disk_mb are read once this many events
  // were submitted (history and warm-up included); the open loop's work
  // is fixed, so it reads them at the end.
  uint64_t footprint_events = 0;
  double rate = 0;             // Open loop: events per second.
  Micros history = 0;          // Open loop: seeded event-time span.
  Micros timestamp_grain = 0;  // Open loop: event-time resolution.
};

// Null when the name is unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// The workload's event sequence, from its seed: the history seeded at
// set-up first, then the live events. Deterministic per (spec, seed).
class EventSource {
 public:
  EventSource(const WorkloadSpec& spec, uint64_t seed, double rate);
  Payment Next();
  // Index of the next event (0-based over history + live).
  uint64_t position() const { return k_; }
  uint64_t history_events() const { return history_events_; }

 private:
  const WorkloadSpec& spec_;
  PaymentGenerator gen_;
  double rate_;
  uint64_t history_events_ = 0;
  uint64_t k_ = 0;
  Micros ts_;
};

// Runs one workload end to end and fills the report. Returns false (and
// prints why to stderr) when the run could not be carried out at all.
bool RunWorkload(const RunOptions& options, Report* report);

}  // namespace railbench

#endif  // RAILBENCH_WORKLOADS_H_
