// Control-plane workload: a fixed grid of RunExperiment cells (every
// Approach x two market seeds over a multi-week horizon) run through
// exec::RunExperimentGrid.

#pragma once

#include <cstdint>
#include <string>

#include "perfbench/src/measure.h"

namespace perfbench {

/// Runs the grid repeatedly for about `seconds`; with `trace` set runs the
/// traced measurement and reports the control-plane per-layer metrics.
/// The grid is fixed, so its outputs can be pinned: no input depends on the
/// run's seed.
RunResult RunControl(int seconds, bool trace, const std::string& out_dir);

/// Prints each cell's digest and cost (used to refresh the pinned values).
void PrintControlPins();

}  // namespace perfbench
