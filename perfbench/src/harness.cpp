#include "harness.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "hw/cost_model.hpp"
#include "vm/hab.hpp"

namespace perfbench {

using htvm::NodeKind;
using htvm::Result;
using htvm::Status;

Result<SourceModel> BuildSource(const ModelSpec& spec) {
  HTVM_ASSIGN_OR_RETURN(graph, models::BuildByName(spec.name, spec.policy));
  return SourceModel{spec, std::move(graph)};
}

std::vector<Tensor> SeededInputs(const Graph& graph, u64 seed) {
  htvm::Rng rng(seed);
  std::vector<Tensor> inputs;
  for (htvm::NodeId id : graph.inputs()) {
    const htvm::Node& n = graph.node(id);
    inputs.push_back(Tensor::Random(n.type.shape, n.type.dtype, rng));
  }
  return inputs;
}

namespace {

std::string Hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string DigestKey(const ModelSpec& spec) {
  return spec.name + " " + models::PrecisionPolicyName(spec.policy);
}

Result<u64> DigestAtDefaultSeed(const SourceModel& source) {
  HTVM_ASSIGN_OR_RETURN(
      outputs, htvm::nn::RunGraph(source.graph,
                                  SeededInputs(source.graph, kDigestSeed)));
  return DigestTensors(outputs);
}

}  // namespace

std::string DigestLines(const std::vector<SourceModel>& sources) {
  std::string out;
  for (const SourceModel& s : sources) {
    auto digest = DigestAtDefaultSeed(s);
    out += DigestKey(s.spec) + " " +
           (digest.ok() ? Hex(*digest) : std::string("error")) + "\n";
  }
  return out;
}

void CheckCommittedDigests(const RunConfig& config,
                           const std::vector<SourceModel>& sources,
                           Report& report) {
  std::map<std::string, std::string> committed;
  std::ifstream in(config.bench_dir + "/expected_digests.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t cut = line.rfind(' ');
    if (cut != std::string::npos) {
      committed[line.substr(0, cut)] = line.substr(cut + 1);
    }
  }
  for (const SourceModel& s : sources) {
    ++report.attempted;
    const auto it = committed.find(DigestKey(s.spec));
    auto digest = DigestAtDefaultSeed(s);
    if (it == committed.end()) {
      report.Fail("no committed digest for " + DigestKey(s.spec));
    } else if (!digest.ok()) {
      report.Fail("reference run failed for " + DigestKey(s.spec) + ": " +
                  digest.status().ToString());
    } else if (Hex(*digest) != it->second) {
      report.Fail("digest mismatch for " + DigestKey(s.spec) + ": got " +
                  Hex(*digest) + ", committed " + it->second);
    }
  }
}

compiler::CompileOptions MakeCompileOptions(
    const std::string& soc, htvm::dory::ScheduleSearchKind kind) {
  compiler::CompileOptions options;
  auto desc = htvm::hw::FindSoc(soc);
  HTVM_CHECK_MSG(desc.ok(), "unknown SoC");
  options.soc = *desc;
  options.schedule_search.kind = kind;
  // Artifacts are byte-identical at any lane count; one lane keeps the
  // ~1 ms compiles free of fan-out noise.
  options.compile_threads = 1;
  options.schedule_search.eval_lanes = 1;
  return options;
}

std::string TimedCacheHook::Key(const Graph& network,
                                const compiler::CompileOptions& options) {
  Scope span(tracer_, "cache.Key");
  return inner_.Key(network, options);
}

std::shared_ptr<const compiler::Artifact> TimedCacheHook::Lookup(
    const std::string& key) {
  Scope span(tracer_, "cache.Lookup");
  return inner_.Lookup(key);
}

void TimedCacheHook::Store(const std::string& key,
                           const compiler::Artifact& artifact) {
  Scope span(tracer_, "cache.Store");
  inner_.Store(key, artifact);
}

std::optional<htvm::dory::TileSolution> TimedCacheHook::LookupSchedule(
    const std::string& key) {
  return inner_.LookupSchedule(key);
}

void TimedCacheHook::StoreSchedule(const std::string& key,
                                   const htvm::dory::TileSolution& solution) {
  inner_.StoreSchedule(key, solution);
}

std::optional<htvm::dory::GraphPlan> TimedCacheHook::LookupPlan(
    const std::string& key) {
  return inner_.LookupPlan(key);
}

void TimedCacheHook::StorePlan(const std::string& key,
                               const htvm::dory::GraphPlan& plan) {
  inner_.StorePlan(key, plan);
}

Result<compiler::Artifact> TimedCompile(Tracer& tracer, const Graph& network,
                                        const compiler::CompileOptions& options) {
  Scope span(tracer, "compiler.Compile");
  return compiler::HtvmCompiler(options).Compile(network);
}

std::string TimedSerialize(Tracer& tracer, const compiler::Artifact& artifact) {
  Scope span(tracer, "vm.SerializeHab");
  return htvm::vm::SerializeHab(artifact);
}

Result<htvm::vm::LoadedArtifact> TimedLoad(Tracer& tracer,
                                           const std::string& hab) {
  Scope span(tracer, "vm.FromBuffer");
  return htvm::vm::LoadedArtifact::FromBuffer(std::span<const htvm::u8>(
      reinterpret_cast<const htvm::u8*>(hab.data()), hab.size()));
}

namespace {

htvm::hw::TiledLayerGeom GeomOf(const htvm::dory::AccelSchedule& s) {
  htvm::hw::TiledLayerGeom g;
  switch (s.spec.kind) {
    case htvm::dory::LayerKind::kConv2d: g.op = htvm::hw::TiledOp::kConv2d; break;
    case htvm::dory::LayerKind::kDwConv2d: g.op = htvm::hw::TiledOp::kDwConv2d; break;
    case htvm::dory::LayerKind::kDense: g.op = htvm::hw::TiledOp::kDense; break;
    case htvm::dory::LayerKind::kAdd: g.op = htvm::hw::TiledOp::kAdd; break;
    case htvm::dory::LayerKind::kMatmul: g.op = htvm::hw::TiledOp::kMatmul; break;
  }
  g.c = s.spec.c;
  g.iy = s.spec.iy;
  g.ix = s.spec.ix;
  g.k = s.spec.k;
  g.oy = s.spec.oy;
  g.ox = s.spec.ox;
  g.kh = s.spec.kh;
  g.kw = s.spec.kw;
  g.c_t = s.solution.c_t;
  g.k_t = s.solution.k_t;
  g.oy_t = s.solution.oy_t;
  g.ox_t = s.solution.ox_t;
  g.iy_t = s.solution.iy_t;
  g.ix_t = s.solution.ix_t;
  g.double_buffer = s.options.double_buffer;
  return g;
}

const char* kTargets[] = {"cpu", "digital", "analog"};

}  // namespace

void AddArtifactLayers(const compiler::Artifact& artifact, LayerTotals& t) {
  const htvm::hw::CostModel cost(artifact.hw_config);
  for (const htvm::hw::KernelPerf& k : artifact.Profile().kernels) {
    const std::string p = "hw.cycles." + k.target + ".";
    t.Add(p + "compute", static_cast<double>(k.compute_cycles));
    t.Add(p + "wdma", static_cast<double>(k.weight_dma_cycles));
    t.Add(p + "adma", static_cast<double>(k.act_dma_cycles));
    t.Add(p + "ovh", static_cast<double>(k.overhead_cycles));
    if (k.target != "cpu") t.Add("dory.tiles", static_cast<double>(k.tiles));
  }
  for (const compiler::CompiledKernel& k : artifact.kernels) {
    if (!k.schedule.has_value() || !k.schedule->solution.needs_tiling) continue;
    const auto engine = k.schedule->target == htvm::dory::AccelTarget::kAnalog
                            ? htvm::hw::AccelEngine::kAnalog
                            : htvm::hw::AccelEngine::kDigital;
    const double est = static_cast<double>(
        cost.EstimateAccelFullCycles(engine, GeomOf(*k.schedule)));
    const double sim = static_cast<double>(k.schedule->full_cycles);
    if (sim > 0) t.cost_err_pct.push_back(std::fabs(est - sim) / sim * 100.0);
  }
  t.Add("tvmgen.size.runtime_kb",
        static_cast<double>(artifact.size.runtime_bytes) / 1024.0);
  t.Add("tvmgen.size.code_kb",
        static_cast<double>(artifact.size.code_bytes) / 1024.0);
  t.Add("tvmgen.size.weight_kb",
        static_cast<double>(artifact.size.weight_bytes) / 1024.0);
  t.Add("dory.plan.fused_pairs", static_cast<double>(artifact.plan.FusedPairs()));
  t.Add("dory.plan.cpu_flips", static_cast<double>(artifact.plan.CpuDecisions()));
}

namespace {

// The nn op names reported per layer (others fold into "other").
const std::vector<std::string>& ReportedOps() {
  static const std::vector<std::string> ops = {
      "conv2d",  "dense",     "bias_add",   "right_shift", "clip",
      "cast",    "relu",      "add",        "avg_pool2d",  "max_pool2d",
      "global_avg_pool2d",    "softmax",    "matmul",      "transpose",
      "layernorm", "gelu",    "reshape",    "flatten",     "pad",
      "other"};
  return ops;
}

std::string OpKey(const std::string& op) {
  const std::string name = op.rfind("nn.", 0) == 0 ? op.substr(3) : op;
  for (const std::string& known : ReportedOps()) {
    if (known == name) return name;
  }
  return "other";
}

// MACs of a conv2d/dense/matmul call, from its operand and result shapes.
double MacsOf(const std::string& key, std::span<const Tensor> in,
              const Tensor& out) {
  const double out_elems = static_cast<double>(out.NumElements());
  if (key == "matmul") {
    const auto& a = in[0].shape().dims();
    return out_elems * static_cast<double>(a.back());
  }
  // conv2d / dense: weight [out_channels, ...reduction]
  const auto& w = in[1].shape().dims();
  const double reduction = static_cast<double>(in[1].NumElements()) /
                           static_cast<double>(w.front());
  return out_elems * reduction;
}

Result<Tensor> ReplayGraph(const Graph& graph, std::span<const Tensor> inputs,
                           LayerTotals& t, double* op_seconds) {
  std::vector<Tensor> values(static_cast<size_t>(graph.NumNodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(graph.inputs()[i])] = inputs[i];
  }
  for (const htvm::Node& n : graph.nodes()) {
    if (n.kind == NodeKind::kInput) continue;
    if (n.kind == NodeKind::kConstant) {
      values[static_cast<size_t>(n.id)] = n.value;
      continue;
    }
    std::vector<Tensor> in;
    in.reserve(n.inputs.size());
    for (htvm::NodeId id : n.inputs) in.push_back(values[static_cast<size_t>(id)]);
    if (n.kind == NodeKind::kComposite) {
      HTVM_ASSIGN_OR_RETURN(out, ReplayGraph(*n.body, in, t, op_seconds));
      values[static_cast<size_t>(n.id)] = std::move(out);
      continue;
    }
    const i64 start = NowNs();
    auto out = htvm::nn::EvalOp(n, in);
    const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
    if (!out.ok()) return out.status();
    const std::string key = OpKey(n.op);
    t.Add("nn." + key + ".ms", seconds * 1e3);
    t.Add("nn." + key + ".calls", 1);
    if (key == "conv2d" || key == "dense" || key == "matmul") {
      double bytes = static_cast<double>(out->SizeBytes());
      for (const Tensor& x : in) bytes += static_cast<double>(x.SizeBytes());
      t.Add("nn." + key + ".macs", MacsOf(key, in, *out));
      t.Add("nn." + key + ".bytes", bytes);
    }
    *op_seconds += seconds;
    values[static_cast<size_t>(n.id)] = std::move(*out);
  }
  if (graph.outputs().size() != 1) {
    return Status::Internal("composite body without a single output");
  }
  return values[static_cast<size_t>(graph.outputs()[0])];
}

}  // namespace

Result<std::vector<Tensor>> ReplayOps(const compiler::Artifact& artifact,
                                      const std::vector<Tensor>& inputs,
                                      LayerTotals& t) {
  std::map<htvm::NodeId, std::string> target_of;
  for (const compiler::CompiledKernel& k : artifact.kernels) {
    target_of[k.node] = k.target;
  }
  const Graph& g = artifact.kernel_graph;
  std::vector<Tensor> values(static_cast<size_t>(g.NumNodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(g.inputs()[i])] = inputs[i];
  }
  for (const htvm::Node& n : g.nodes()) {
    if (n.kind == NodeKind::kInput) continue;
    if (n.kind == NodeKind::kConstant) {
      values[static_cast<size_t>(n.id)] = n.value;
      continue;
    }
    if (n.kind != NodeKind::kComposite) {
      return Status::Internal("bare op in kernel graph");
    }
    std::vector<Tensor> in;
    for (htvm::NodeId id : n.inputs) in.push_back(values[static_cast<size_t>(id)]);
    double op_seconds = 0;
    HTVM_ASSIGN_OR_RETURN(out, ReplayGraph(*n.body, in, t, &op_seconds));
    const auto it = target_of.find(n.id);
    const std::string target = it == target_of.end() ? "cpu" : it->second;
    t.Add("runtime.kernel." + target + "_ms", op_seconds * 1e3);
    t.Add("replay.op_ms", op_seconds * 1e3);
    values[static_cast<size_t>(n.id)] = std::move(out);
  }
  std::vector<Tensor> outputs;
  for (htvm::NodeId id : g.outputs()) {
    outputs.push_back(values[static_cast<size_t>(id)]);
  }
  return outputs;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"compiler.compile_ms", "ms"},
        {"compiler.compiles", "count"},
    };
    for (const std::string& pass : compiler::HtvmPassNames()) {
      m.emplace_back("compiler.pass." + pass + "_ms", "ms");
    }
    m.insert(m.end(), {
        {"dory.search.cost_evals", "count"},
        {"dory.search.sim_evals", "count"},
        {"dory.plan.fused_pairs", "count"},
        {"dory.plan.cpu_flips", "count"},
        {"dory.tiles", "count"},
    });
    for (const char* target : kTargets) {
      for (const char* phase : {"compute", "wdma", "adma", "ovh"}) {
        m.emplace_back(std::string("hw.cycles.") + target + "." + phase,
                       "cycles");
      }
    }
    m.insert(m.end(), {
        {"hw.cost_model.err_pct_mean", "%"},
        {"hw.cost_model.err_pct_max", "%"},
        {"tvmgen.size.runtime_kb", "kB"},
        {"tvmgen.size.code_kb", "kB"},
        {"tvmgen.size.weight_kb", "kB"},
        {"cache.key_us", "us"},
        {"cache.lookup_us", "us"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.disk_hits", "count"},
        {"cache.disk_writes", "count"},
        {"cache.hit_ratio", "ratio"},
        {"vm.serialize_ms", "ms"},
        {"vm.load_ms", "ms"},
        {"vm.hab_kb", "kB"},
        {"runtime.run_ms", "ms"},
        {"runtime.runs", "count"},
    });
    for (const char* target : kTargets) {
      m.emplace_back(std::string("runtime.kernel.") + target + "_ms", "ms");
    }
    m.emplace_back("runtime.unattributed_frac", "ratio");
    for (const std::string& op : ReportedOps()) {
      m.emplace_back("nn." + op + ".ms", "ms");
      m.emplace_back("nn." + op + ".calls", "count");
      if (op == "conv2d" || op == "dense" || op == "matmul") {
        m.emplace_back("nn." + op + ".macs", "count");
        m.emplace_back("nn." + op + ".bytes", "B");
      }
    }
    m.insert(m.end(), {
        {"serve.submit_blocked_ms", "ms"},
        {"serve.drain_ms", "ms"},
        {"serve.batches", "count"},
        {"serve.mean_batch", "count"},
        {"serve.max_queue_depth", "count"},
        {"serve.mean_queue_depth", "count"},
        {"serve.rejected", "count"},
        {"serve.utilization_mean", "ratio"},
        {"trace.overhead_pct", "%"},
    });
    return m;
  }();
  return metrics;
}

}  // namespace perfbench
