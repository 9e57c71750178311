// The measured phases the workloads are assembled from: inference rounds
// over HAB-loaded executors, cold/warm compile sweeps through a disk-backed
// artifact cache, InferenceServer passes, and simulated-clock serving.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/metrics.hpp"
#include "sim_serve.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Inference rounds
// ---------------------------------------------------------------------------

// One model compiled for one SoC, round-tripped through SerializeHab ->
// LoadedArtifact::FromBuffer, with seeded inputs and its source-graph
// reference outputs.
struct InferCell {
  const SourceModel* source = nullptr;
  std::string soc;
  compiler::Artifact compiled;
  std::unique_ptr<htvm::vm::VmExecutor> exec;
  std::vector<Tensor> inputs;
  std::vector<Tensor> reference;
};

htvm::Result<InferCell> MakeInferCell(Tracer& tracer, const SourceModel& source,
                                      const std::string& soc, u64 seed);

struct RoundStats {
  std::vector<double> round_ms;
  i64 inferences = 0;
  double busy_s = 0;  // summed round time
};

// Closed loop, one thread: a round is one Run per cell. Runs `rounds`
// rounds, appending to `stats`. Every output is compared byte for byte
// with its cell's reference; a mismatch fails the round. With `replay`,
// rounds are followed (outside their timing) by an op-by-op replay of every
// cell into `replay` until it holds `replay_rounds` rounds.
void RunRounds(std::vector<InferCell>& cells, int rounds, Tracer& tracer,
               Report& report, bool plant_flip, RoundStats& stats,
               LayerTotals* replay = nullptr, int replay_rounds = 0);

// ---------------------------------------------------------------------------
// Compile sweeps
// ---------------------------------------------------------------------------

struct SweepCell {
  const SourceModel* source = nullptr;
  std::string soc;
};

struct SweepStats {
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  i64 cold_compiles = 0;
  // Totals over all sweeps (per-layer view).
  double pass_ms_total = 0;
  std::map<std::string, double> pass_ms;  // per pass, summed over compiles
  htvm::cache::CacheStats cache;          // summed over sweeps
  i64 cost_evals = 0;
  i64 sim_evals = 0;
};

// A sweep is a cold compile of every cell into an emptied cache directory
// (each misses and writes a HAB), then ArtifactCache::Reset(), which keeps
// the files, and a warm compile of every cell (each a disk hit). After each
// sweep, outside its timing: every warm artifact's HAB bytes must equal its
// cold artifact's, and simulated cycles and binary bytes must repeat those
// of the first sweep. last_warm() holds the latest sweep's warm artifacts.
class SweepRunner {
 public:
  SweepRunner(std::vector<SweepCell> cells, htvm::dory::ScheduleSearchKind kind,
              std::string cache_dir);

  // Runs `sweeps` sweeps, appending to `stats`.
  void Run(int sweeps, Tracer& tracer, Report& report, SweepStats& stats);
  const std::vector<compiler::Artifact>& last_warm() const { return warm_; }

 private:
  bool Sweep(Tracer& tracer, Report& report, SweepStats& stats);

  std::vector<SweepCell> cells_;
  htvm::dory::ScheduleSearchKind kind_;
  std::string dir_;
  htvm::cache::ArtifactCache cache_;
  std::vector<compiler::Artifact> cold_;
  std::vector<compiler::Artifact> warm_;
  std::vector<std::pair<i64, i64>> expected_;  // (full cycles, bytes) per cell
};

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

struct ServeConfig {
  ServeSetup setup;
  int worker_threads = 4;
  double headline_qps = 0;
  double pass_duration_s = 0;  // trace horizon of one InferenceServer pass
};

struct PassStats {
  htvm::serve::ServingMetrics metrics;
  double wall_s = 0;       // Start through Drain
  double submit_ms = 0;    // time inside Submit calls
  double drain_ms = 0;
};

// One InferenceServer lifetime over the headline trace: register the models
// (compiled through the process-wide cache), Start, Submit every arrival,
// Drain. Rejections, execution failures, output mismatches and any
// disagreement with `expected` (the scheduler replay of the same trace)
// are failures.
std::optional<PassStats> RunServePass(const std::vector<SourceModel>& models,
                                      const ServeConfig& config, u64 seed,
                                      Tracer& tracer, Report& report,
                                      const SimServeResult& expected);

// The serving figures computed on the simulated clock alone: exact p50/p99
// at the headline rate over a long trace, and the knee of the rate ladder.
struct SimServeFigures {
  double p50_us = 0;
  double p99_us = 0;
  double knee_rps = 0;
  i64 rejected = 0;
};
SimServeFigures SimServeFiguresFor(const std::vector<ServeModel>& models,
                                   const ServeSetup& setup, double headline_qps,
                                   u64 seed);

// The fleet every workload serves on: the speeds differ, so placement and
// batching have real choices.
ServeSetup DefaultServeSetup();

// Compiles `source` once per distinct fleet kind (heuristic search).
htvm::Result<std::vector<compiler::Artifact>> CompilePerKind(
    const SourceModel& source, const std::vector<std::string>& kinds);

}  // namespace perfbench
