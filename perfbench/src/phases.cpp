#include "phases.hpp"

#include <filesystem>

#include "dory/schedule_search.hpp"
#include "runtime/executor.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "vm/hab.hpp"

namespace perfbench {

using htvm::Result;
using htvm::Status;
using htvm::dory::ScheduleSearchKind;

namespace {

// Simulated horizon of the headline replay and of each ladder rate: long
// enough that p50, p99 and the knee barely move between seeds.
constexpr double kHeadlineSimSeconds = 600.0;
constexpr double kLadderSimSeconds = 60.0;
// Rates 1.25x apart, so no knee sits on the edge of two rates.
const std::vector<double> kLadder = {1000, 1250, 1600, 2000, 2500, 3200, 4000};

std::string CellName(const SourceModel& source, const std::string& soc) {
  return source.spec.name + "@" + soc;
}

}  // namespace

Result<InferCell> MakeInferCell(Tracer& tracer, const SourceModel& source,
                                const std::string& soc, u64 seed) {
  InferCell cell;
  cell.source = &source;
  cell.soc = soc;
  HTVM_ASSIGN_OR_RETURN(
      compiled, TimedCompile(tracer, source.graph,
                             MakeCompileOptions(soc, ScheduleSearchKind::kHeuristic)));
  cell.compiled = std::move(compiled);
  const std::string hab = TimedSerialize(tracer, cell.compiled);
  HTVM_ASSIGN_OR_RETURN(loaded, TimedLoad(tracer, hab));
  if (htvm::vm::SerializeHab(loaded.artifact()) != hab) {
    return Status::Internal("HAB round trip changed " + CellName(source, soc));
  }
  cell.exec = std::make_unique<htvm::vm::VmExecutor>(std::move(loaded));
  cell.inputs = htvm::vm::SyntheticInputs(cell.exec->artifact(), seed);
  // The oracle: the interpreter on the source graph, not the artifact.
  HTVM_ASSIGN_OR_RETURN(reference,
                        htvm::nn::RunGraph(source.graph, cell.inputs));
  cell.reference = std::move(reference);
  return cell;
}

void RunRounds(std::vector<InferCell>& cells, int rounds, Tracer& tracer,
               Report& report, bool plant_flip, RoundStats& stats,
               LayerTotals* replay, int replay_rounds) {
  std::vector<std::vector<Tensor>> outputs(cells.size());
  std::vector<double> run_ms(cells.size());
  for (int round = 0; round < rounds; ++round) {
    const bool first = stats.round_ms.empty();
    tracer.BeginOp();
    std::vector<bool> ok(cells.size(), true);
    const i64 start = NowNs();
    {
      Scope op(tracer, "round");
      for (size_t i = 0; i < cells.size(); ++i) {
        Scope span(tracer, "runtime.Run");
        const i64 run_start = NowNs();
        auto result = cells[i].exec->Run(cells[i].inputs);
        run_ms[i] = static_cast<double>(NowNs() - run_start) / 1e6;
        if (!result.ok()) {
          ok[i] = false;
          report.Fail("run failed: " + result.status().ToString());
          outputs[i].clear();
          continue;
        }
        outputs[i] = std::move(result->outputs);
      }
    }
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    for (size_t i = 0; i < cells.size(); ++i) {
      ++report.attempted;
      if (!ok[i]) continue;
      if (plant_flip && first && i == 0 && !outputs[i].empty() &&
          outputs[i][0].SizeBytes() > 0) {
        outputs[i][0].raw()[0] ^= 0x01;
      }
      if (!SameOutputs(outputs[i], cells[i].reference)) {
        report.Fail("output mismatch on " +
                    CellName(*cells[i].source, cells[i].soc));
        continue;
      }
      ++stats.inferences;
    }
    stats.round_ms.push_back(ms);
    stats.busy_s += ms / 1e3;
    if (replay != nullptr &&
        replay->values["replay.inferences"] <
            static_cast<double>(replay_rounds * cells.size())) {
      for (size_t i = 0; i < cells.size(); ++i) {
        ++report.attempted;
        auto replayed = ReplayOps(cells[i].exec->artifact(), cells[i].inputs,
                                  *replay);
        if (!replayed.ok() || !SameOutputs(*replayed, cells[i].reference)) {
          report.Fail("op-by-op replay disagrees on " +
                      CellName(*cells[i].source, cells[i].soc));
        }
        replay->Add("replay.inferences", 1);
        replay->Add("replay.run_ms", run_ms[i]);
      }
    }
  }
}

SweepRunner::SweepRunner(std::vector<SweepCell> cells, ScheduleSearchKind kind,
                         std::string cache_dir)
    : cells_(std::move(cells)), kind_(kind), dir_(std::move(cache_dir)) {
  cache_.Reset(htvm::cache::ArtifactCacheOptions{256ll * 1024 * 1024, dir_});
}

void SweepRunner::Run(int sweeps, Tracer& tracer, Report& report,
                      SweepStats& stats) {
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    if (!Sweep(tracer, report, stats)) break;
  }
}

bool SweepRunner::Sweep(Tracer& tracer, Report& report, SweepStats& stats) {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  std::filesystem::create_directories(dir_, ec);
  cache_.Reset();
  TimedCacheHook timed(cache_, tracer);
  compiler::ArtifactCacheHook* hook =
      tracer.enabled() ? static_cast<compiler::ArtifactCacheHook*>(&timed)
                       : &cache_;
  std::vector<compiler::CompileOptions> options;
  for (const SweepCell& cell : cells_) {
    options.push_back(MakeCompileOptions(cell.soc, kind_));
    options.back().cache = hook;
  }
  auto& search = htvm::dory::ScheduleSearchStats::Global();
  const i64 cost0 = search.cost_model_evals();
  const i64 sim0 = search.simulator_evals();

  auto compile_all = [&](std::vector<compiler::Artifact>& out) {
    out.clear();
    for (size_t i = 0; i < cells_.size(); ++i) {
      auto artifact = TimedCompile(tracer, cells_[i].source->graph, options[i]);
      if (!artifact.ok()) {
        report.Fail("compile failed on " +
                    CellName(*cells_[i].source, cells_[i].soc) + ": " +
                    artifact.status().ToString());
        return false;
      }
      out.push_back(std::move(*artifact));
    }
    return true;
  };

  tracer.BeginOp();
  ++report.attempted;
  const i64 cold_start = NowNs();
  bool ok;
  {
    Scope span(tracer, "sweep.cold");
    ok = compile_all(cold_);
  }
  const i64 cold_end = NowNs();
  const htvm::cache::CacheStats cold_stats = cache_.stats();
  cache_.Reset();  // keeps the files: the warm pass parses them back
  const i64 warm_start = NowNs();
  if (ok) {
    Scope span(tracer, "sweep.warm");
    ok = compile_all(warm_);
  }
  const i64 warm_end = NowNs();
  if (!ok) return false;
  const htvm::cache::CacheStats warm_stats = cache_.stats();

  stats.cold_ms.push_back(static_cast<double>(cold_end - cold_start) / 1e6);
  stats.warm_ms.push_back(static_cast<double>(warm_end - warm_start) / 1e6);
  stats.cost_evals += search.cost_model_evals() - cost0;
  stats.sim_evals += search.simulator_evals() - sim0;
  for (const htvm::cache::CacheStats* s : {&cold_stats, &warm_stats}) {
    stats.cache.hits += s->hits;
    stats.cache.misses += s->misses;
    stats.cache.disk_hits += s->disk_hits;
    stats.cache.disk_writes += s->disk_writes;
  }

  // Gates, outside the timing; a sweep fails once, naming its first fault.
  std::string fault;
  const i64 n = static_cast<i64>(cells_.size());
  if (cold_stats.misses != n || cold_stats.disk_writes != n ||
      warm_stats.disk_hits != n) {
    fault = "sweep did not miss cold and disk-hit warm on every cell";
  }
  const bool first = expected_.empty();
  for (size_t i = 0; i < cells_.size(); ++i) {
    const compiler::Artifact& cold = cold_[i];
    const std::string cold_hab = htvm::vm::SerializeHab(cold);
    if (fault.empty() && htvm::vm::SerializeHab(warm_[i]) != cold_hab) {
      fault = "warm HAB differs from cold HAB on " +
              CellName(*cells_[i].source, cells_[i].soc);
    }
    const std::pair<i64, i64> figures{cold.TotalFullCycles(), cold.size.Total()};
    if (first) {
      expected_.push_back(figures);
    } else if (fault.empty() && expected_[i] != figures) {
      fault = "simulated cycles or binary bytes changed between sweeps on " +
              CellName(*cells_[i].source, cells_[i].soc);
    }
    for (const compiler::PassStat& pass : cold.pass_timeline) {
      const double ms = static_cast<double>(pass.wall_ns) / 1e6;
      stats.pass_ms[pass.name] += ms;
      stats.pass_ms_total += ms;
    }
    ++stats.cold_compiles;
  }
  if (!fault.empty()) report.Fail(fault);
  return true;
}

std::optional<PassStats> RunServePass(const std::vector<SourceModel>& models,
                                      const ServeConfig& config, u64 seed,
                                      Tracer& tracer, Report& report,
                                      const SimServeResult& expected) {
  namespace serve = htvm::serve;
  serve::ServerOptions options;
  options.fleet_size = static_cast<int>(config.setup.fleet.size());
  options.soc_kinds = config.setup.fleet;
  options.queue_capacity = config.setup.queue_capacity;
  options.max_batch = config.setup.max_batch;
  options.worker_threads = config.worker_threads;
  options.verify_outputs = true;
  serve::InferenceServer server(options);
  ++report.attempted;
  for (const SourceModel& m : models) {
    auto handle = server.RegisterModel(
        m.spec.name, m.graph,
        MakeCompileOptions("diana", ScheduleSearchKind::kHeuristic), seed);
    if (!handle.ok()) {
      report.Fail("RegisterModel failed: " + handle.status().ToString());
      return std::nullopt;
    }
  }
  const auto trace = serve::PoissonTrace(config.headline_qps,
                                         config.pass_duration_s, seed,
                                         server.num_models());
  PassStats stats;
  tracer.BeginOp();
  const i64 start = NowNs();
  server.Start();
  i64 submit_ns = 0;
  for (const serve::TraceEvent& e : trace) {
    Scope span(tracer, "serve.Submit");
    const i64 t = NowNs();
    (void)server.Submit(e.model, e.arrival_us);  // rejections counted below
    submit_ns += NowNs() - t;
  }
  const i64 drain_start = NowNs();
  {
    Scope span(tracer, "serve.Drain");
    stats.metrics = server.Drain(config.pass_duration_s);
  }
  const i64 end = NowNs();
  stats.wall_s = static_cast<double>(end - start) / 1e9;
  stats.submit_ms = static_cast<double>(submit_ns) / 1e6;
  stats.drain_ms = static_cast<double>(end - drain_start) / 1e6;

  const serve::ServingMetrics& m = stats.metrics;
  const std::string disagree = CrossCheck(expected, m);
  if (m.rejected > 0 || m.exec_failures > 0 || m.output_mismatches > 0 ||
      m.served != m.admitted) {
    report.Fail("serve pass: rejected=" + std::to_string(m.rejected) +
                " exec_failures=" + std::to_string(m.exec_failures) +
                " output_mismatches=" + std::to_string(m.output_mismatches) +
                " served=" + std::to_string(m.served) + "/" +
                std::to_string(m.admitted));
  } else if (!disagree.empty()) {
    report.Fail("server metrics disagree with the scheduler replay: " +
                disagree);
  }
  return stats;
}

SimServeFigures SimServeFiguresFor(const std::vector<ServeModel>& models,
                                   const ServeSetup& setup, double headline_qps,
                                   u64 seed) {
  const SimServeResult r =
      SimulateServing(models, setup, headline_qps, kHeadlineSimSeconds, seed);
  SimServeFigures f;
  f.p50_us = Percentile(r.latencies_us, 50.0);
  f.p99_us = Percentile(r.latencies_us, 99.0);
  f.rejected = r.rejected;
  f.knee_rps = KneeRps(models, setup, kLadder, kLadderSimSeconds, seed);
  return f;
}

ServeSetup DefaultServeSetup() {
  ServeSetup setup;
  setup.fleet = {"diana", "diana", "diana-pe32", "diana-noanalog"};
  return setup;
}

Result<std::vector<compiler::Artifact>> CompilePerKind(
    const SourceModel& source, const std::vector<std::string>& kinds) {
  Tracer untraced;
  std::vector<compiler::Artifact> out;
  for (const std::string& kind : kinds) {
    HTVM_ASSIGN_OR_RETURN(
        artifact,
        TimedCompile(untraced, source.graph,
                     MakeCompileOptions(kind, ScheduleSearchKind::kHeuristic)));
    out.push_back(std::move(artifact));
  }
  return out;
}

}  // namespace perfbench
