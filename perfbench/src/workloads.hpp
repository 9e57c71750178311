// The three workloads. Each sets itself up several times (setup_s is the
// median), measures for `config.seconds`, checks every output, and fills
// `report` with every end-to-end metric (untraced run) or every per-layer
// metric (traced run).
#pragma once

#include "harness.hpp"

namespace perfbench {

void RunInferCnn(const RunConfig& config, Report& report);
void RunServeSmall(const RunConfig& config, Report& report);
void RunCompileSearch(const RunConfig& config, Report& report);

// Source models of every workload (for --print-digests).
std::vector<ModelSpec> AllModelSpecs();

}  // namespace perfbench
