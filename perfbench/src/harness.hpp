// What the three workloads share: building and compiling cells, the
// source-graph output oracle, HAB round trips, the timed-call wrappers that
// record spans, and the per-layer counters read from compiled artifacts.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cache/artifact_cache.hpp"
#include "compiler/compile_passes.hpp"
#include "compiler/pipeline.hpp"
#include "models/registry.hpp"
#include "nn/interpreter.hpp"
#include "vm/vm_executor.hpp"

namespace perfbench {

using htvm::Graph;
using htvm::Tensor;
namespace compiler = htvm::compiler;
namespace models = htvm::models;

// Command-line view shared by every workload.
struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bench_dir;  // perfbench/ (committed digests live here)
  std::string work_dir;   // scratch directory for cache files and traces
  // Self-check: flip one byte of the first timed output before it is
  // compared, which must surface as a failure.
  bool plant_flip = false;
};

// The seed the committed expected-output digests were produced with.
inline constexpr u64 kDigestSeed = 1;

// One model at one precision policy, built from the registry.
struct ModelSpec {
  std::string name;
  models::PrecisionPolicy policy;
};

struct SourceModel {
  ModelSpec spec;
  Graph graph;
};

htvm::Result<SourceModel> BuildSource(const ModelSpec& spec);

// One input tensor per graph input, from the same seed -> Tensor::Random
// scheme vm::SyntheticInputs uses (so equal seeds give equal tensors).
std::vector<Tensor> SeededInputs(const Graph& graph, u64 seed);

// Checks the reference outputs at kDigestSeed against the committed
// digests (perfbench/expected_digests.txt). Mismatches go to `report`.
void CheckCommittedDigests(const RunConfig& config,
                           const std::vector<SourceModel>& sources,
                           Report& report);
// One "<model> <policy> <hex digest>" line per source at kDigestSeed.
std::string DigestLines(const std::vector<SourceModel>& sources);

compiler::CompileOptions MakeCompileOptions(const std::string& soc,
                                            htvm::dory::ScheduleSearchKind kind);

// Spans around the compiler's cache hook calls; forwards to `inner`.
class TimedCacheHook final : public compiler::ArtifactCacheHook {
 public:
  TimedCacheHook(htvm::cache::ArtifactCache& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  std::string Key(const Graph& network,
                  const compiler::CompileOptions& options) override;
  std::shared_ptr<const compiler::Artifact> Lookup(
      const std::string& key) override;
  void Store(const std::string& key,
             const compiler::Artifact& artifact) override;
  std::optional<htvm::dory::TileSolution> LookupSchedule(
      const std::string& key) override;
  void StoreSchedule(const std::string& key,
                     const htvm::dory::TileSolution& solution) override;
  std::optional<htvm::dory::GraphPlan> LookupPlan(
      const std::string& key) override;
  void StorePlan(const std::string& key,
                 const htvm::dory::GraphPlan& plan) override;

 private:
  htvm::cache::ArtifactCache& inner_;
  Tracer& tracer_;
};

// Timed calls into the layers (each records a span when tracing).
htvm::Result<compiler::Artifact> TimedCompile(
    Tracer& tracer, const Graph& network,
    const compiler::CompileOptions& options);
std::string TimedSerialize(Tracer& tracer, const compiler::Artifact& artifact);
htvm::Result<htvm::vm::LoadedArtifact> TimedLoad(Tracer& tracer,
                                                 const std::string& hab);

// Per-layer totals read from compiled artifacts and replays.
struct LayerTotals {
  std::map<std::string, double> values;  // per-layer metric name -> sum
  std::vector<double> cost_err_pct;      // |estimate - simulated| / simulated
  void Add(const std::string& name, double v) { values[name] += v; }
};

// Simulated cycles by target x phase, binary size parts, DORY tiles and
// plan decisions, and the cost-model error of every tiled kernel.
void AddArtifactLayers(const compiler::Artifact& artifact, LayerTotals& t);

// Replays every kernel-graph composite op by op through nn::EvalOp,
// accumulating per-op time, calls, MACs and computed bytes, and per-target
// kernel time. Returns the graph outputs.
htvm::Result<std::vector<Tensor>> ReplayOps(const compiler::Artifact& artifact,
                                            const std::vector<Tensor>& inputs,
                                            LayerTotals& t);

// Every per-layer metric name with its unit, in a fixed order. Workloads
// report each one; layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench
