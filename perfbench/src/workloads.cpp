#include "workloads.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>

#include "hw/soc.hpp"
#include "phases.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"
#include "vm/hab.hpp"

namespace perfbench {

using htvm::Result;
using htvm::dory::ScheduleSearchKind;

namespace {

constexpr models::PrecisionPolicy kMixed = models::PrecisionPolicy::kMixed;
constexpr models::PrecisionPolicy kInt8 = models::PrecisionPolicy::kInt8;

// setup_s is the median of this many complete set-ups per run: one before
// the timed loop, the rest spread evenly over it, so that set-up time
// samples the whole run like every other metric.
constexpr size_t kSetupRepeats = 5;
// Each workload loops over its timed operations, interleaved so that every
// metric samples the whole run, until this share of --seconds; the
// simulated-clock figures follow. A traced run spends the first
// kUntracedShare untraced (the tracing-overhead baseline) and the rest
// traced.
constexpr double kLoopShare = 0.95;
constexpr double kUntracedShare = 0.45;
// Rounds and sweeps run at least this many times, so ten samples lie
// beyond p90.
constexpr size_t kSampleCount = 100;
// Op-by-op replays per traced run (per-layer nn/runtime figures).
constexpr int kReplayRounds = 10;
// serve-small: rounds and sweeps run after each server pass.
constexpr int kPerPass = 8;
// compile-search: one output check (every cell once) per this many sweeps.
constexpr int kSweepsPerCheck = 20;

// Headline arrival rates on the simulated clock, per workload model set:
// rates near the knee at which nothing is rejected, the median request
// queues (so p50 is not a zero-wait atom at one model's fixed service time)
// and mean batch > 1. Chosen on a 100 rps grid from 600 s replays at ten
// seeds; serve-small's p99 there is just below the knee limit.
constexpr double kInferCnnQps = 2000;
constexpr double kServeSmallQps = 3100;
constexpr double kCompileSearchQps = 2400;
// Simulated horizon of one InferenceServer pass (about 800 requests).
constexpr double kServePassSeconds = 0.25;
constexpr double kServeWarmupSeconds = 0.15;

// A set-up step that cannot complete ends the run as one failed op.
bool SetupFailed(Report& report, const htvm::Status& status) {
  ++report.attempted;
  report.Fail("set-up failed: " + status.ToString());
  return false;
}

// Runs a workload's complete set-up (false on failure) and times it.
struct RepeatedSetup {
  std::function<bool()> run;
  std::vector<double> seconds;

  bool Once() {
    const i64 start = NowNs();
    const bool ok = run();
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    return ok;
  }
  // Called once per loop iteration: set up again at each of the evenly
  // spaced points of [start, end) the loop has passed.
  void MaybeAgain(i64 start, i64 end) {
    const double done = static_cast<double>(NowNs() - start) /
                        static_cast<double>(std::max<i64>(1, end - start));
    const size_t due = 1 + static_cast<size_t>(
                               done * static_cast<double>(kSetupRepeats - 1));
    if (seconds.size() < std::min(due, kSetupRepeats)) Once();
  }
  void Finish() {
    while (seconds.size() < kSetupRepeats && Once()) {
    }
  }
};

i64 At(i64 start_ns, double seconds) {
  return start_ns + static_cast<i64>(seconds * 1e9);
}

Result<std::vector<SourceModel>> BuildSources(const std::vector<ModelSpec>& specs) {
  std::vector<SourceModel> sources;
  for (const ModelSpec& spec : specs) {
    HTVM_ASSIGN_OR_RETURN(source, BuildSource(spec));
    sources.push_back(std::move(source));
  }
  return sources;
}

// Simulated cycles and binary bytes of each cell; must repeat exactly
// between the set-ups of one run.
std::vector<std::pair<i64, i64>> Figures(
    const std::vector<const compiler::Artifact*>& cells) {
  std::vector<std::pair<i64, i64>> out;
  for (const compiler::Artifact* a : cells) {
    out.emplace_back(a->TotalFullCycles(), a->size.Total());
  }
  return out;
}

void CheckRepeats(const std::vector<const compiler::Artifact*>& cells,
                  std::vector<std::pair<i64, i64>>& previous, Report& report) {
  ++report.attempted;
  const auto now = Figures(cells);
  if (!previous.empty() && previous != now) {
    report.Fail("simulated cycles or binary bytes changed between set-ups");
  }
  previous = now;
}

std::vector<ServeModel> ServeModels(
    const std::vector<SourceModel>& sources,
    const std::vector<std::vector<const compiler::Artifact*>>& per_kind,
    const std::vector<std::string>& kinds) {
  std::vector<ServeModel> out;
  for (size_t m = 0; m < sources.size(); ++m) {
    ServeModel model{sources[m].spec.name, {}};
    for (size_t k = 0; k < kinds.size(); ++k) {
      model.kinds.emplace_back(kinds[k], per_kind[m][k]);
    }
    out.push_back(std::move(model));
  }
  return out;
}

// Everything a workload measured, before it becomes metrics.
struct Measured {
  std::vector<double> setup_s;
  // Read when the timed loop ends, before the simulated-clock replays.
  double peak_rss_mb = 0;
  RoundStats rounds;
  double infer_per_s = 0;
  SweepStats sweeps;
  std::vector<const compiler::Artifact*> cells;
  SimServeFigures serve;
  // Traced run only.
  LayerTotals replay;
  std::vector<PassStats> passes;
  double overhead_pct = 0;
};

void EmitEndToEnd(const Measured& m, Report& report) {
  std::vector<double> kcycles, kb;
  for (const compiler::Artifact* a : m.cells) {
    kcycles.push_back(static_cast<double>(a->TotalFullCycles()) / 1e3);
    kb.push_back(static_cast<double>(a->size.Total()) / 1024.0);
  }
  report.Set("setup_s", Median(m.setup_s), "s");
  report.Set("peak_rss_mb", m.peak_rss_mb, "MB");
  const auto& rounds = m.rounds.round_ms;
  report.Set("infer_round_ms_p50", SteadyPercentile(rounds, 50), "ms");
  report.Set("infer_round_ms_p90", SteadyPercentile(rounds, 90), "ms");
  report.Set("infer_per_s", m.infer_per_s, "1/s");
  const auto& cold = m.sweeps.cold_ms;
  report.Set("compile_sweep_ms_p50", SteadyPercentile(cold, 50), "ms");
  report.Set("compile_sweep_ms_p90", SteadyPercentile(cold, 90), "ms");
  report.Set("warm_sweep_ms_p50", SteadyPercentile(m.sweeps.warm_ms, 50), "ms");
  report.Set("sim_kcycles_geomean", Geomean(kcycles), "kcycles");
  report.Set("binary_kb_geomean", Geomean(kb), "kB");
  report.Set("serve_sim_p50_us", m.serve.p50_us, "us");
  report.Set("serve_sim_p99_us", m.serve.p99_us, "us");
  report.Set("serve_sim_knee_rps", m.serve.knee_rps, "1/s");
}

void EmitPerLayer(const Measured& m, const Tracer& tracer, Report& report) {
  for (const auto& [name, unit] : PerLayerMetrics()) report.Set(name, 0, unit);
  auto set = [&report](const std::string& name, double v) {
    report.metrics.at(name).value = v;
  };
  auto per = [](double total, double count) {
    return count > 0 ? total / count : 0.0;
  };

  LayerTotals artifacts;
  double hab_kb = 0;
  for (const compiler::Artifact* a : m.cells) {
    AddArtifactLayers(*a, artifacts);
    hab_kb += static_cast<double>(htvm::vm::SerializeHab(*a).size()) / 1024.0;
  }
  for (const auto& [name, v] : artifacts.values) set(name, v);
  if (!artifacts.cost_err_pct.empty()) {
    double sum = 0;
    for (double e : artifacts.cost_err_pct) sum += e;
    set("hw.cost_model.err_pct_mean",
        sum / static_cast<double>(artifacts.cost_err_pct.size()));
    set("hw.cost_model.err_pct_max", *std::max_element(
        artifacts.cost_err_pct.begin(), artifacts.cost_err_pct.end()));
  }
  set("vm.hab_kb", per(hab_kb, static_cast<double>(m.cells.size())));

  const SweepStats& sw = m.sweeps;
  const double sweeps = static_cast<double>(sw.cold_ms.size());
  const double compiles = static_cast<double>(sw.cold_compiles);
  set("compiler.compiles", per(compiles, sweeps));
  set("compiler.compile_ms", per(sw.pass_ms_total, compiles));
  for (const auto& [pass, ms] : sw.pass_ms) {
    set("compiler.pass." + pass + "_ms", per(ms, compiles));
  }
  set("dory.search.cost_evals", per(static_cast<double>(sw.cost_evals), sweeps));
  set("dory.search.sim_evals", per(static_cast<double>(sw.sim_evals), sweeps));
  set("cache.hits", per(static_cast<double>(sw.cache.hits), sweeps));
  set("cache.misses", per(static_cast<double>(sw.cache.misses), sweeps));
  set("cache.disk_hits", per(static_cast<double>(sw.cache.disk_hits), sweeps));
  set("cache.disk_writes",
      per(static_cast<double>(sw.cache.disk_writes), sweeps));
  set("cache.hit_ratio",
      per(static_cast<double>(sw.cache.hits),
          static_cast<double>(sw.cache.hits + sw.cache.misses)));

  const auto self = tracer.SelfSeconds();
  const auto calls = tracer.Calls();
  auto mean_self = [&](const std::string& span, double scale) {
    const auto s = self.find(span);
    const auto c = calls.find(span);
    return s == self.end() ? 0.0
                           : s->second * scale / static_cast<double>(c->second);
  };
  set("cache.key_us", mean_self("cache.Key", 1e6));
  set("cache.lookup_us", mean_self("cache.Lookup", 1e6));
  set("vm.serialize_ms", mean_self("vm.SerializeHab", 1e3));
  set("vm.load_ms", mean_self("vm.FromBuffer", 1e3));
  set("runtime.run_ms", mean_self("runtime.Run", 1e3));
  const auto runs = calls.find("runtime.Run");
  set("runtime.runs",
      runs == calls.end() ? 0.0 : static_cast<double>(runs->second));

  const auto& r = m.replay.values;
  auto value = [&r](const std::string& name) {
    const auto it = r.find(name);
    return it == r.end() ? 0.0 : it->second;
  };
  const double inferences = value("replay.inferences");
  for (const auto& [name, v] : r) {
    if (name.rfind("nn.", 0) == 0 || name.rfind("runtime.kernel.", 0) == 0) {
      set(name, per(v, inferences));
    }
  }
  if (value("replay.run_ms") > 0) {
    set("runtime.unattributed_frac",
        1.0 - value("replay.op_ms") / value("replay.run_ms"));
  }

  if (!m.passes.empty()) {
    double submit = 0, drain = 0, batches = 0, mean_batch = 0, max_depth = 0,
           mean_depth = 0, rejected = 0, util = 0;
    for (const PassStats& p : m.passes) {
      submit += p.submit_ms;
      drain += p.drain_ms;
      batches += static_cast<double>(p.metrics.batches);
      mean_batch += p.metrics.mean_batch_size;
      max_depth += static_cast<double>(p.metrics.max_queue_depth);
      mean_depth += p.metrics.mean_queue_depth;
      rejected += static_cast<double>(p.metrics.rejected);
      double u = 0;
      for (const auto& soc : p.metrics.socs) u += soc.utilization;
      util += per(u, static_cast<double>(p.metrics.socs.size()));
    }
    const double n = static_cast<double>(m.passes.size());
    set("serve.submit_blocked_ms", submit / n);
    set("serve.drain_ms", drain / n);
    set("serve.batches", batches / n);
    set("serve.mean_batch", mean_batch / n);
    set("serve.max_queue_depth", max_depth / n);
    set("serve.mean_queue_depth", mean_depth / n);
    set("serve.rejected", rejected / n);
    set("serve.utilization_mean", util / n);
  }
  set("trace.overhead_pct", m.overhead_pct);
}

void Emit(const RunConfig& config, const Measured& m, const Tracer& tracer,
          Report& report) {
  if (!config.trace) {
    EmitEndToEnd(m, report);
    return;
  }
  EmitPerLayer(m, tracer, report);
  tracer.WriteChromeTrace(config.work_dir + "/trace-" + config.workload + "-" +
                          std::to_string(config.seed) + ".json");
}

double OverheadPct(const std::vector<double>& untraced,
                   const std::vector<double>& traced) {
  const double base = Median(untraced);
  return base > 0 ? (Median(traced) / base - 1.0) * 100.0 : 0.0;
}

int WorkerThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

}  // namespace

std::vector<ModelSpec> AllModelSpecs() {
  return {{"dscnn", kMixed},
          {"resnet", kMixed},
          {"toyadmos", kMixed},
          {"transformer", kMixed},
          {"mobilenet", kInt8}};
}

// ---------------------------------------------------------------------------
// infer-cnn: closed-loop rounds of DS-CNN + ResNet-8 inference.
// ---------------------------------------------------------------------------

void RunInferCnn(const RunConfig& config, Report& report) {
  const std::vector<ModelSpec> specs = {{"dscnn", kMixed}, {"resnet", kMixed}};
  const ServeSetup serve = DefaultServeSetup();
  const std::vector<std::string> kinds = DistinctKinds(serve.fleet);
  struct State {
    std::vector<SourceModel> sources;
    std::vector<InferCell> cells;
    std::vector<std::vector<compiler::Artifact>> per_kind;
  };
  Tracer tracer;
  Measured m;
  std::unique_ptr<State> state;
  std::vector<std::pair<i64, i64>> figures;
  // One complete set-up; only the first one's state is measured.
  auto set_up = [&]() -> bool {
    auto s = std::make_unique<State>();
    auto sources = BuildSources(specs);
    if (!sources.ok()) return SetupFailed(report, sources.status());
    s->sources = std::move(*sources);
    CheckCommittedDigests(config, s->sources, report);
    for (const SourceModel& source : s->sources) {
      auto cell = MakeInferCell(tracer, source, "diana", config.seed);
      if (!cell.ok()) return SetupFailed(report, cell.status());
      s->cells.push_back(std::move(*cell));
      auto per_kind = CompilePerKind(source, kinds);
      if (!per_kind.ok()) return SetupFailed(report, per_kind.status());
      s->per_kind.push_back(std::move(*per_kind));
    }
    RoundStats warmup;
    RunRounds(s->cells, 2, tracer, report, false, warmup);
    std::vector<const compiler::Artifact*> cells;
    for (const InferCell& c : s->cells) cells.push_back(&c.compiled);
    CheckRepeats(cells, figures, report);
    if (state == nullptr) state = std::move(s);
    return true;
  };
  tracer.Enable(config.trace);
  RepeatedSetup setups{set_up, {}};
  if (!setups.Once()) return;

  std::vector<SweepCell> sweep_cells;
  for (const SourceModel& s : state->sources) sweep_cells.push_back({&s, "diana"});
  SweepRunner sweeps(sweep_cells, ScheduleSearchKind::kHeuristic,
                     config.work_dir + "/cache-infer-cnn");
  CpuRotation cpus;
  const i64 start = NowNs();
  const i64 end = At(start, config.seconds * kLoopShare);
  // One round, then one sweep of the workload's own two cells.
  auto loop = [&](i64 until, size_t min_rounds, RoundStats& rounds,
                  LayerTotals* replay) {
    while (rounds.round_ms.size() < min_rounds || NowNs() < until) {
      setups.MaybeAgain(start, end);
      cpus.Next();
      RunRounds(state->cells, 1, tracer, report, config.plant_flip, rounds,
                replay, kReplayRounds);
      sweeps.Run(1, tracer, report, m.sweeps);
    }
  };
  if (!config.trace) {
    loop(end, kSampleCount, m.rounds, nullptr);
  } else {
    tracer.Enable(false);
    RoundStats untraced;
    loop(At(start, config.seconds * kUntracedShare), kReplayRounds, untraced,
         &m.replay);
    tracer.Enable(true);
    loop(end, kReplayRounds, m.rounds, nullptr);
    m.overhead_pct = OverheadPct(untraced.round_ms, m.rounds.round_ms);
  }
  m.infer_per_s = static_cast<double>(m.rounds.inferences) / m.rounds.busy_s;
  cpus.Release();
  setups.Finish();
  m.setup_s = setups.seconds;
  m.peak_rss_mb = PeakRssMb();

  std::vector<std::vector<const compiler::Artifact*>> per_kind;
  for (const auto& artifacts : state->per_kind) {
    per_kind.emplace_back();
    for (const compiler::Artifact& a : artifacts) per_kind.back().push_back(&a);
  }
  m.serve = SimServeFiguresFor(ServeModels(state->sources, per_kind, kinds),
                               serve, kInferCnnQps, config.seed);
  ++report.attempted;
  if (m.serve.rejected > 0) report.Fail("headline rate rejects requests");
  for (const InferCell& c : state->cells) m.cells.push_back(&c.compiled);
  Emit(config, m, tracer, report);
}

// ---------------------------------------------------------------------------
// serve-small: InferenceServer passes of ToyAdmos + TinyTransformer.
// ---------------------------------------------------------------------------

void RunServeSmall(const RunConfig& config, Report& report) {
  const std::vector<ModelSpec> specs = {{"toyadmos", kMixed},
                                        {"transformer", kMixed}};
  ServeConfig serve;
  serve.setup = DefaultServeSetup();
  serve.worker_threads = WorkerThreads();
  serve.headline_qps = kServeSmallQps;
  serve.pass_duration_s = kServePassSeconds;
  ServeConfig warmup = serve;
  warmup.pass_duration_s = kServeWarmupSeconds;
  const std::vector<std::string> kinds = DistinctKinds(serve.setup.fleet);

  struct State {
    std::vector<SourceModel> sources;
    std::vector<std::vector<compiler::Artifact>> per_kind;
    std::vector<ServeModel> serve_models;
    SimServeResult expected;  // scheduler replay of one pass's trace
    std::vector<InferCell> cells;
  };
  Tracer tracer;
  Measured m;
  std::unique_ptr<State> state;
  std::vector<std::pair<i64, i64>> figures;
  // One complete set-up; only the first one's state is measured.
  auto set_up = [&]() -> bool {
    htvm::cache::ConfigureGlobalArtifactCache({});  // every set-up starts cold
    auto s = std::make_unique<State>();
    auto sources = BuildSources(specs);
    if (!sources.ok()) return SetupFailed(report, sources.status());
    s->sources = std::move(*sources);
    CheckCommittedDigests(config, s->sources, report);
    std::vector<std::vector<const compiler::Artifact*>> per_kind_ptrs;
    for (size_t mi = 0; mi < s->sources.size(); ++mi) {
      const SourceModel& source = s->sources[mi];
      auto per_kind = CompilePerKind(source, kinds);
      if (!per_kind.ok()) return SetupFailed(report, per_kind.status());
      s->per_kind.push_back(std::move(*per_kind));
      // The server synthesizes model mi's inputs from seed ^ (mi * golden);
      // every kind's artifact must reproduce the source graph on them.
      const auto inputs = SeededInputs(
          source.graph, config.seed ^ (mi * 0x9E3779B97F4A7C15ull));
      auto reference = htvm::nn::RunGraph(source.graph, inputs);
      per_kind_ptrs.emplace_back();
      for (const compiler::Artifact& a : s->per_kind.back()) {
        per_kind_ptrs.back().push_back(&a);
        ++report.attempted;
        auto out = htvm::runtime::Executor(&a).Run(inputs);
        if (!reference.ok() || !out.ok() ||
            !SameOutputs(out->outputs, *reference)) {
          report.Fail("serve model " + source.spec.name + "@" + a.soc_name +
                      " disagrees with the source graph");
        }
      }
    }
    s->serve_models = ServeModels(s->sources, per_kind_ptrs, kinds);
    s->expected = SimulateServing(s->serve_models, serve.setup,
                                  serve.headline_qps, serve.pass_duration_s,
                                  config.seed);
    const SimServeResult warmup_expected =
        SimulateServing(s->serve_models, serve.setup, warmup.headline_qps,
                        warmup.pass_duration_s, config.seed);
    RunServePass(s->sources, warmup, config.seed, tracer, report,
                 warmup_expected);
    for (const SourceModel& source : s->sources) {
      auto cell = MakeInferCell(tracer, source, "diana", config.seed);
      if (!cell.ok()) return SetupFailed(report, cell.status());
      s->cells.push_back(std::move(*cell));
    }
    std::vector<const compiler::Artifact*> cells;
    for (const auto& artifacts : s->per_kind) {
      for (const compiler::Artifact& a : artifacts) cells.push_back(&a);
    }
    CheckRepeats(cells, figures, report);
    if (state == nullptr) state = std::move(s);
    return true;
  };
  tracer.Enable(config.trace);
  RepeatedSetup setups{set_up, {}};
  if (!setups.Once()) return;

  std::vector<SweepCell> sweep_cells;
  for (const SourceModel& s : state->sources) {
    for (const std::string& kind : kinds) sweep_cells.push_back({&s, kind});
  }
  SweepRunner sweeps(sweep_cells, ScheduleSearchKind::kHeuristic,
                     config.work_dir + "/cache-serve-small");
  CpuRotation cpus;
  const i64 start = NowNs();
  const i64 end = At(start, config.seconds * kLoopShare);
  // One server pass, then kPerPass rounds and kPerPass sweeps.
  auto loop = [&](i64 until, std::vector<PassStats>& passes,
                  LayerTotals* replay) {
    while (passes.size() < 2 || m.rounds.round_ms.size() < kSampleCount ||
           NowNs() < until) {
      cpus.Release();  // the server's workers inherit this thread's mask
      setups.MaybeAgain(start, end);
      auto pass = RunServePass(state->sources, serve, config.seed, tracer,
                               report, state->expected);
      if (!pass.has_value()) return;
      passes.push_back(std::move(*pass));
      cpus.Next();
      RunRounds(state->cells, kPerPass, tracer, report, config.plant_flip,
                m.rounds, replay, kReplayRounds);
      sweeps.Run(kPerPass, tracer, report, m.sweeps);
    }
  };
  std::vector<PassStats> passes;
  if (!config.trace) {
    loop(end, passes, nullptr);
  } else {
    tracer.Enable(false);
    std::vector<PassStats> untraced;
    loop(At(start, config.seconds * kUntracedShare), untraced, &m.replay);
    tracer.Enable(true);
    loop(end, passes, nullptr);
    std::vector<double> a, b;
    for (const PassStats& p : untraced) a.push_back(p.wall_s);
    for (const PassStats& p : passes) b.push_back(p.wall_s);
    m.overhead_pct = OverheadPct(a, b);
  }
  std::vector<double> rates;
  for (const PassStats& p : passes) {
    rates.push_back(static_cast<double>(p.metrics.served) / p.wall_s);
  }
  m.infer_per_s = Median(rates);
  cpus.Release();
  setups.Finish();
  m.setup_s = setups.seconds;
  m.peak_rss_mb = PeakRssMb();
  m.passes = std::move(passes);

  m.serve = SimServeFiguresFor(state->serve_models, serve.setup,
                               serve.headline_qps, config.seed);
  ++report.attempted;
  if (m.serve.rejected > 0) report.Fail("headline rate rejects requests");
  for (const auto& artifacts : state->per_kind) {
    for (const compiler::Artifact& a : artifacts) m.cells.push_back(&a);
  }
  Emit(config, m, tracer, report);
}

// ---------------------------------------------------------------------------
// compile-search: cold + warm graph-beam compile sweeps over 5 models x every
// registered SoC through a disk-backed cache.
// ---------------------------------------------------------------------------

namespace {

// The post-sweep output check: every cell runs once on seeded inputs and is
// compared with its model's source-graph reference. A round is one SoC's
// five cells (host time barely depends on the SoC), so one check gives one
// round per SoC.
RoundStats CheckCells(const std::vector<SweepCell>& cells,
                      const std::vector<compiler::Artifact>& artifacts,
                      const std::vector<SourceModel>& sources,
                      const std::vector<std::vector<Tensor>>& inputs,
                      const std::vector<std::vector<Tensor>>& references,
                      Tracer& tracer, Report& report, bool plant_flip) {
  RoundStats stats;
  std::vector<std::string> socs;
  for (const SweepCell& c : cells) {
    if (std::find(socs.begin(), socs.end(), c.soc) == socs.end()) {
      socs.push_back(c.soc);
    }
  }
  for (const std::string& soc : socs) {
    tracer.BeginOp();
    double round_ms = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].soc != soc) continue;
      ++report.attempted;
      const size_t mi = static_cast<size_t>(cells[i].source - sources.data());
      const htvm::runtime::Executor executor(&artifacts[i]);
      const i64 start = NowNs();
      auto result = [&] {
        Scope span(tracer, "runtime.Run");
        return executor.Run(inputs[mi]);
      }();
      round_ms += static_cast<double>(NowNs() - start) / 1e6;
      if (!result.ok()) {
        report.Fail("run failed: " + result.status().ToString());
        continue;
      }
      if (plant_flip && !result->outputs.empty() &&
          result->outputs[0].SizeBytes() > 0) {
        result->outputs[0].raw()[0] ^= 0x01;
        plant_flip = false;
      }
      if (!SameOutputs(result->outputs, references[mi])) {
        report.Fail("output mismatch on " + cells[i].source->spec.name + "@" +
                    soc);
        continue;
      }
      ++stats.inferences;
    }
    stats.round_ms.push_back(round_ms);
    stats.busy_s += round_ms / 1e3;
  }
  return stats;
}

}  // namespace

void RunCompileSearch(const RunConfig& config, Report& report) {
  const std::vector<ModelSpec> specs = AllModelSpecs();
  const ServeSetup serve = DefaultServeSetup();
  const std::vector<std::string> kinds = DistinctKinds(serve.fleet);
  struct State {
    std::vector<SourceModel> sources;
    std::vector<SweepCell> cells;
    std::vector<std::vector<Tensor>> inputs;      // per model
    std::vector<std::vector<Tensor>> references;  // per model
    std::unique_ptr<SweepRunner> runner;
  };
  Tracer tracer;
  Measured m;
  std::unique_ptr<State> state;
  std::vector<std::pair<i64, i64>> figures;
  // One complete set-up; only the first one's state is measured.
  auto set_up = [&]() -> bool {
    auto s = std::make_unique<State>();
    auto sources = BuildSources(specs);
    if (!sources.ok()) return SetupFailed(report, sources.status());
    s->sources = std::move(*sources);
    CheckCommittedDigests(config, s->sources, report);
    for (const SourceModel& source : s->sources) {
      s->inputs.push_back(SeededInputs(source.graph, config.seed));
      auto reference = htvm::nn::RunGraph(source.graph, s->inputs.back());
      if (!reference.ok()) return SetupFailed(report, reference.status());
      s->references.push_back(std::move(*reference));
      for (const std::string& soc : htvm::hw::SocRegistry::Global().Names()) {
        s->cells.push_back({&source, soc});
      }
    }
    htvm::Rng rng(config.seed);  // the seed sets the cell order
    for (size_t i = s->cells.size(); i > 1; --i) {
      std::swap(s->cells[i - 1],
                s->cells[static_cast<size_t>(rng.UniformInt(0, static_cast<i64>(i) - 1))]);
    }
    s->runner = std::make_unique<SweepRunner>(
        s->cells, ScheduleSearchKind::kGraphBeam,
        config.work_dir + "/cache-compile-search");
    SweepStats warmup;
    s->runner->Run(1, tracer, report, warmup);
    std::vector<const compiler::Artifact*> cells;
    for (const compiler::Artifact& a : s->runner->last_warm()) cells.push_back(&a);
    CheckRepeats(cells, figures, report);
    if (state == nullptr) state = std::move(s);
    return true;
  };
  tracer.Enable(config.trace);
  RepeatedSetup setups{set_up, {}};
  if (!setups.Once()) return;

  const std::vector<compiler::Artifact>& warm = state->runner->last_warm();
  auto check = [&] {
    const RoundStats c =
        CheckCells(state->cells, warm, state->sources, state->inputs,
                   state->references, tracer, report,
                   config.plant_flip && m.rounds.round_ms.empty());
    m.rounds.round_ms.insert(m.rounds.round_ms.end(), c.round_ms.begin(),
                             c.round_ms.end());
    m.rounds.busy_s += c.busy_s;
    m.rounds.inferences += c.inferences;
  };
  CpuRotation cpus;
  const i64 start = NowNs();
  const i64 end = At(start, config.seconds * kLoopShare);
  // Sweeps, with an output check of the latest warm artifacts after every
  // kSweepsPerCheck of them.
  auto loop = [&](i64 until, size_t min_sweeps, SweepStats& sweeps) {
    for (int n = 1; sweeps.cold_ms.size() < min_sweeps || NowNs() < until; ++n) {
      setups.MaybeAgain(start, end);
      cpus.Next();
      state->runner->Run(1, tracer, report, sweeps);
      if (n % kSweepsPerCheck == 0) check();
    }
  };
  if (!config.trace) {
    loop(end, kSampleCount, m.sweeps);
  } else {
    tracer.Enable(false);
    SweepStats untraced;
    loop(At(start, config.seconds * kUntracedShare), kSampleCount / 4, untraced);
    tracer.Enable(true);
    loop(end, kSampleCount / 4, m.sweeps);
    m.overhead_pct = OverheadPct(untraced.cold_ms, m.sweeps.cold_ms);
  }
  if (m.rounds.round_ms.empty()) check();
  m.infer_per_s = static_cast<double>(m.rounds.inferences) / m.rounds.busy_s;
  cpus.Release();
  setups.Finish();
  m.setup_s = setups.seconds;
  m.peak_rss_mb = PeakRssMb();

  std::vector<std::vector<const compiler::Artifact*>> per_kind(
      state->sources.size(), std::vector<const compiler::Artifact*>(kinds.size()));
  for (size_t i = 0; i < state->cells.size(); ++i) {
    const size_t mi =
        static_cast<size_t>(state->cells[i].source - state->sources.data());
    const auto k = std::find(kinds.begin(), kinds.end(), state->cells[i].soc);
    if (k != kinds.end()) per_kind[mi][static_cast<size_t>(k - kinds.begin())] = &warm[i];
  }
  m.serve = SimServeFiguresFor(ServeModels(state->sources, per_kind, kinds),
                               serve, kCompileSearchQps, config.seed);
  ++report.attempted;
  if (m.serve.rejected > 0) report.Fail("headline rate rejects requests");
  for (const compiler::Artifact& a : warm) m.cells.push_back(&a);
  Emit(config, m, tracer, report);
}

}  // namespace perfbench
