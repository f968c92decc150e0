// Layer replay: feeds a workload's own generated events straight
// through the public functions of single layers (reservoir, window
// manager, task plan, state store, remote bus) and times each call.
// It is the second group of per-layer metrics; the first group comes
// from the engine's trace.stage.* histograms during the traced run.
#ifndef RAILBENCH_LAYERS_H_
#define RAILBENCH_LAYERS_H_

#include <string>

#include "measure.h"
#include "workloads.h"

namespace railbench {

// Replays `events` events of the workload (seeded history included)
// under `dir` and adds the replay's per-layer metrics to the report.
// Returns false when a layer call fails.
bool RunLayerReplay(const WorkloadSpec& spec, uint64_t seed, double rate,
                    uint64_t events, const std::string& dir, Report* report);

}  // namespace railbench

#endif  // RAILBENCH_LAYERS_H_
