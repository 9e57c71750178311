#include "dory/schedule_search.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <map>
#include <numeric>

#include "hw/cost_model.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"
#include "support/thread_pool.hpp"

namespace htvm::dory {
namespace {

hw::TiledOp ToTiledOp(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2d:
      return hw::TiledOp::kConv2d;
    case LayerKind::kDwConv2d:
      return hw::TiledOp::kDwConv2d;
    case LayerKind::kDense:
      return hw::TiledOp::kDense;
    case LayerKind::kAdd:
      return hw::TiledOp::kAdd;
    case LayerKind::kMatmul:
      return hw::TiledOp::kMatmul;
  }
  return hw::TiledOp::kConv2d;
}

hw::TiledLayerGeom ToGeom(const AccelLayerSpec& spec, const TilerOptions& tiler,
                          const TileSolution& cand) {
  hw::TiledLayerGeom g;
  g.op = ToTiledOp(spec.kind);
  g.c = spec.c;
  g.iy = spec.iy;
  g.ix = spec.ix;
  g.k = spec.k;
  g.oy = spec.oy;
  g.ox = spec.ox;
  g.kh = spec.kh;
  g.kw = spec.kw;
  g.c_t = cand.c_t;
  g.k_t = cand.k_t;
  g.oy_t = cand.oy_t;
  g.ox_t = cand.ox_t;
  g.iy_t = cand.iy_t;
  g.ix_t = cand.ix_t;
  g.double_buffer = tiler.double_buffer;
  return g;
}

// Ground truth: the full per-tile simulator schedule's latency.
Result<i64> SimulateFullCycles(const AccelLayerSpec& spec,
                               const hw::DianaConfig& cfg, AccelTarget target,
                               const TilerOptions& tiler,
                               const TileSolution& cand) {
  HTVM_ASSIGN_OR_RETURN(sched,
                        BuildScheduleWithSolution(spec, cfg, target, tiler,
                                                  cand));
  return sched.full_cycles;
}

// Simulator-evaluates every finalist (fanned out on SharedCompilePool) and
// returns the fastest; ties keep the earliest entry, so callers list the
// heuristic pick first to guarantee searched <= heuristic.
Result<TileSolution> EvaluateFinalists(const AccelLayerSpec& spec,
                                       const hw::DianaConfig& cfg,
                                       AccelTarget target,
                                       const TilerOptions& tiler,
                                       const ScheduleSearchOptions& search,
                                       const std::vector<TileSolution>& fin) {
  const i64 n = static_cast<i64>(fin.size());
  // A finalist whose schedule exceeds the per-layer step limit (a feasible
  // but absurdly small tile shape) is scored unschedulable rather than
  // failing the search: the heuristic pick is also a finalist, so any
  // layer the plain tiler can deploy, the search can too.
  constexpr i64 kUnschedulable = std::numeric_limits<i64>::max();
  std::vector<i64> cycles(fin.size(), 0);
  const auto eval_one = [&](i64 i) -> Status {
    auto full = SimulateFullCycles(spec, cfg, target, tiler,
                                   fin[static_cast<size_t>(i)]);
    if (!full.ok()) {
      if (full.status().code() == StatusCode::kResourceExhausted) {
        cycles[static_cast<size_t>(i)] = kUnschedulable;
        return Status::Ok();
      }
      return full.status();
    }
    cycles[static_cast<size_t>(i)] = *full;
    return Status::Ok();
  };
  const i64 lanes = std::min<i64>(search.eval_lanes, n);
  if (lanes <= 1 || n <= 1) {
    for (i64 i = 0; i < n; ++i) {
      HTVM_RETURN_IF_ERROR(eval_one(i));
    }
  } else {
    HTVM_RETURN_IF_ERROR(ParallelFor(SharedCompilePool(), n, lanes, eval_one));
  }
  ScheduleSearchStats::Global().RecordSimEvals(n);

  size_t best = 0;
  for (size_t i = 1; i < fin.size(); ++i) {
    if (cycles[i] < cycles[best]) best = i;
  }
  if (cycles[best] == kUnschedulable) {
    // Even the heuristic pick cannot be scheduled: surface its typed error.
    return SimulateFullCycles(spec, cfg, target, tiler, fin[0]).status();
  }
  return fin[best];
}

bool SameShape(const TileSolution& a, const TileSolution& b) {
  return a.c_t == b.c_t && a.k_t == b.k_t && a.oy_t == b.oy_t &&
         a.ox_t == b.ox_t;
}

// ---- heuristic ------------------------------------------------------------

class HeuristicSearch final : public ScheduleSearch {
 public:
  ScheduleSearchKind kind() const override {
    return ScheduleSearchKind::kHeuristic;
  }
  Result<TileSolution> Select(
      const AccelLayerSpec& spec, const hw::DianaConfig& cfg,
      AccelTarget target, const TilerOptions& tiler,
      const ScheduleSearchOptions& /*search*/,
      const std::vector<TileSolution>& candidates) const override {
    return PickHeuristicSolution(spec, cfg, target, tiler, candidates);
  }
};

// ---- beam -----------------------------------------------------------------

class BeamSearch final : public ScheduleSearch {
 public:
  ScheduleSearchKind kind() const override { return ScheduleSearchKind::kBeam; }
  Result<TileSolution> Select(
      const AccelLayerSpec& spec, const hw::DianaConfig& cfg,
      AccelTarget target, const TilerOptions& tiler,
      const ScheduleSearchOptions& search,
      const std::vector<TileSolution>& candidates) const override {
    const hw::CostModel model(cfg);
    const hw::AccelEngine engine = target == AccelTarget::kAnalog
                                       ? hw::AccelEngine::kAnalog
                                       : hw::AccelEngine::kDigital;
    // Rank the whole feasible set with the O(1) analytic model.
    std::vector<i64> est(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      est[i] = model.EstimateAccelFullCycles(engine,
                                             ToGeom(spec, tiler, candidates[i]));
    }
    ScheduleSearchStats::Global().RecordCostEvals(
        static_cast<i64>(candidates.size()));

    std::vector<size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return est[a] != est[b] ? est[a] < est[b] : a < b;
    });

    // The heuristic pick leads the shortlist: on a simulator tie it wins,
    // so a searched schedule is never slower than the heuristic one.
    TileSolution hpick = PickHeuristicSolution(spec, cfg, target, tiler,
                                               candidates);
    std::vector<TileSolution> finalists{hpick};
    const size_t width = static_cast<size_t>(std::max(1, search.beam_width));
    for (size_t r = 0; r < order.size() && finalists.size() <= width; ++r) {
      TileSolution cand = candidates[order[r]];
      if (SameShape(cand, hpick)) continue;
      cand.objective = HeuristicObjective(spec, cfg, target, tiler, cand);
      finalists.push_back(cand);
    }
    return EvaluateFinalists(spec, cfg, target, tiler, search, finalists);
  }
};

// ---- evolutionary ---------------------------------------------------------

// Genetic search over the 4-D structured tile-shape space. The genome is an
// index into the feasible candidate vector; mutation moves one axis to a
// neighboring feasible value, crossover mixes axes of two parents with
// repair toward parent A. Fitness is the analytic cost model; the final
// elites (plus the heuristic pick) graduate to the simulator.
class EvolutionarySearch final : public ScheduleSearch {
 public:
  ScheduleSearchKind kind() const override {
    return ScheduleSearchKind::kEvolutionary;
  }
  Result<TileSolution> Select(
      const AccelLayerSpec& spec, const hw::DianaConfig& cfg,
      AccelTarget target, const TilerOptions& tiler,
      const ScheduleSearchOptions& search,
      const std::vector<TileSolution>& candidates) const override {
    const hw::CostModel model(cfg);
    const hw::AccelEngine engine = target == AccelTarget::kAnalog
                                       ? hw::AccelEngine::kAnalog
                                       : hw::AccelEngine::kDigital;
    const size_t n = candidates.size();

    // Axis value lists + feasibility index over the enumerated set.
    std::array<std::vector<i64>, 4> axes;
    std::map<std::array<i64, 4>, size_t> index;
    for (size_t i = 0; i < n; ++i) {
      const std::array<i64, 4> key = ShapeKey(candidates[i]);
      index.emplace(key, i);
      for (int a = 0; a < 4; ++a) axes[static_cast<size_t>(a)].push_back(key[static_cast<size_t>(a)]);
    }
    for (auto& axis : axes) {
      std::sort(axis.begin(), axis.end());
      axis.erase(std::unique(axis.begin(), axis.end()), axis.end());
    }

    // Lazy fitness cache: one analytic evaluation per distinct genome.
    std::vector<i64> est(n, -1);
    i64 cost_evals = 0;
    const auto fitness = [&](size_t i) -> i64 {
      if (est[i] < 0) {
        est[i] = model.EstimateAccelFullCycles(
            engine, ToGeom(spec, tiler, candidates[i]));
        ++cost_evals;
      }
      return est[i];
    };

    Rng rng(search.seed ^
            ScheduleSearchProblemFingerprint(spec, target, tiler, search));
    const size_t pop_size =
        std::max<size_t>(2, std::min<size_t>(
                                static_cast<size_t>(std::max(2, search.population)), n));

    // Seed the population with an even spread over the (c, k, oy, ox)
    // enumeration order plus random immigrants.
    std::vector<size_t> pop;
    for (size_t p = 0; p < pop_size; ++p) {
      pop.push_back(p * (n - 1) / std::max<size_t>(1, pop_size - 1));
    }
    const auto tournament = [&]() -> size_t {
      const size_t a = pop[static_cast<size_t>(
          rng.UniformInt(0, static_cast<i64>(pop.size()) - 1))];
      const size_t b = pop[static_cast<size_t>(
          rng.UniformInt(0, static_cast<i64>(pop.size()) - 1))];
      return fitness(a) <= fitness(b) ? a : b;
    };

    const int generations = std::max(1, search.generations);
    for (int gen = 0; gen < generations; ++gen) {
      std::sort(pop.begin(), pop.end(), [&](size_t a, size_t b) {
        return fitness(a) != fitness(b) ? fitness(a) < fitness(b) : a < b;
      });
      pop.erase(std::unique(pop.begin(), pop.end()), pop.end());
      const size_t keep = std::min<size_t>(
          pop.size(), static_cast<size_t>(std::max(1, search.elites)));
      std::vector<size_t> next(pop.begin(),
                               pop.begin() + static_cast<std::ptrdiff_t>(keep));
      while (next.size() < pop_size) {
        const size_t pa = tournament();
        const size_t pb = tournament();
        size_t child = Crossover(candidates, index, pa, pb, rng);
        if (rng.UniformDouble() < 0.4) {
          child = Mutate(candidates, axes, index, child, rng);
        }
        next.push_back(child);
      }
      pop = std::move(next);
    }
    ScheduleSearchStats::Global().RecordCostEvals(cost_evals);

    // Final elites by analytic fitness, heuristic pick first.
    std::sort(pop.begin(), pop.end(), [&](size_t a, size_t b) {
      return fitness(a) != fitness(b) ? fitness(a) < fitness(b) : a < b;
    });
    pop.erase(std::unique(pop.begin(), pop.end()), pop.end());
    TileSolution hpick = PickHeuristicSolution(spec, cfg, target, tiler,
                                               candidates);
    std::vector<TileSolution> finalists{hpick};
    const size_t elites = static_cast<size_t>(std::max(1, search.elites));
    for (size_t i = 0; i < pop.size() && finalists.size() <= elites; ++i) {
      TileSolution cand = candidates[pop[i]];
      if (SameShape(cand, hpick)) continue;
      cand.objective = HeuristicObjective(spec, cfg, target, tiler, cand);
      finalists.push_back(cand);
    }
    return EvaluateFinalists(spec, cfg, target, tiler, search, finalists);
  }

 private:
  static std::array<i64, 4> ShapeKey(const TileSolution& s) {
    return {s.c_t, s.k_t, s.oy_t, s.ox_t};
  }

  // Uniform crossover with repair: per axis, take parent A's or B's value;
  // if the combination is not in the feasible set, back off axis by axis
  // toward parent A (which is always feasible).
  static size_t Crossover(const std::vector<TileSolution>& candidates,
                          const std::map<std::array<i64, 4>, size_t>& index,
                          size_t pa, size_t pb, Rng& rng) {
    const std::array<i64, 4> a = ShapeKey(candidates[pa]);
    const std::array<i64, 4> b = ShapeKey(candidates[pb]);
    std::array<i64, 4> child = a;
    std::array<bool, 4> from_b{};
    for (size_t axis = 0; axis < 4; ++axis) {
      if (rng.NextU64() & 1) {
        child[axis] = b[axis];
        from_b[axis] = true;
      }
    }
    for (int back = 0; back < 4; ++back) {
      const auto it = index.find(child);
      if (it != index.end()) return it->second;
      // Revert one borrowed axis (deterministic order) and retry.
      for (size_t axis = 0; axis < 4; ++axis) {
        if (from_b[axis]) {
          child[axis] = a[axis];
          from_b[axis] = false;
          break;
        }
      }
    }
    return pa;
  }

  // Move one axis to an adjacent value in its sorted feasible list; keep
  // the parent when the neighbor combination is infeasible.
  static size_t Mutate(const std::vector<TileSolution>& candidates,
                       const std::array<std::vector<i64>, 4>& axes,
                       const std::map<std::array<i64, 4>, size_t>& index,
                       size_t parent, Rng& rng) {
    std::array<i64, 4> key = ShapeKey(candidates[parent]);
    const size_t axis = static_cast<size_t>(rng.UniformInt(0, 3));
    const std::vector<i64>& values = axes[axis];
    const auto pos = std::lower_bound(values.begin(), values.end(), key[axis]);
    i64 at = pos - values.begin();
    at += (rng.NextU64() & 1) ? 1 : -1;
    if (at < 0 || at >= static_cast<i64>(values.size())) return parent;
    key[axis] = values[static_cast<size_t>(at)];
    const auto it = index.find(key);
    return it != index.end() ? it->second : parent;
  }
};

}  // namespace

bool IsGraphSearchKind(ScheduleSearchKind kind) {
  return kind == ScheduleSearchKind::kGraphBeam ||
         kind == ScheduleSearchKind::kGraphEvolutionary;
}

const char* ScheduleSearchKindName(ScheduleSearchKind kind) {
  switch (kind) {
    case ScheduleSearchKind::kHeuristic:
      return "heuristic";
    case ScheduleSearchKind::kBeam:
      return "beam";
    case ScheduleSearchKind::kEvolutionary:
      return "evolutionary";
    case ScheduleSearchKind::kGraphBeam:
      return "graph-beam";
    case ScheduleSearchKind::kGraphEvolutionary:
      return "graph-evolutionary";
  }
  return "heuristic";
}

Result<ScheduleSearchKind> ParseScheduleSearchKind(std::string_view name) {
  if (name == "heuristic") return ScheduleSearchKind::kHeuristic;
  if (name == "beam") return ScheduleSearchKind::kBeam;
  if (name == "evolutionary") return ScheduleSearchKind::kEvolutionary;
  if (name == "graph-beam") return ScheduleSearchKind::kGraphBeam;
  if (name == "graph-evolutionary") {
    return ScheduleSearchKind::kGraphEvolutionary;
  }
  return Status::InvalidArgument(
      StrFormat("unknown schedule-search kind '%s' (expected heuristic|beam|"
                "evolutionary|graph-beam|graph-evolutionary)",
                std::string(name).c_str()));
}

ScheduleSearchStats& ScheduleSearchStats::Global() {
  static ScheduleSearchStats* stats = new ScheduleSearchStats();
  return *stats;
}

void ScheduleSearchStats::Reset() {
  cost_model_evals_ = 0;
  simulator_evals_ = 0;
  memo_hits_ = 0;
  layers_searched_ = 0;
}

std::unique_ptr<ScheduleSearch> MakeScheduleSearch(ScheduleSearchKind kind) {
  switch (kind) {
    case ScheduleSearchKind::kHeuristic:
      return std::make_unique<HeuristicSearch>();
    // The graph-level kinds search fusion/dispatch plans one level up
    // (compiler/plan_search.hpp); per-layer tile selection reuses the
    // matching tile strategy, keeping its match-or-beat guarantee.
    case ScheduleSearchKind::kBeam:
    case ScheduleSearchKind::kGraphBeam:
      return std::make_unique<BeamSearch>();
    case ScheduleSearchKind::kEvolutionary:
    case ScheduleSearchKind::kGraphEvolutionary:
      return std::make_unique<EvolutionarySearch>();
  }
  return std::make_unique<HeuristicSearch>();
}

u64 ScheduleSearchProblemFingerprint(const AccelLayerSpec& spec,
                                     AccelTarget target,
                                     const TilerOptions& tiler,
                                     const ScheduleSearchOptions& search) {
  // FNV-1a 64 over every field that changes the candidate set, the scoring
  // or the search trajectory.
  struct Fnv {
    u64 h = 14695981039346656037ull;
    void operator()(u64 v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 1099511628211ull;
      }
    }
    // Field visitor (dory::Fields) over the same fold.
    void operator()(i64 v) { (*this)(static_cast<u64>(v)); }
    void operator()(double v) { (*this)(std::bit_cast<u64>(v)); }
    void operator()(bool v) { (*this)(u64{v}); }
  } fold;
  fold(static_cast<u64>(spec.kind));
  fold(static_cast<u64>(spec.c));
  fold(static_cast<u64>(spec.iy));
  fold(static_cast<u64>(spec.ix));
  fold(static_cast<u64>(spec.k));
  fold(static_cast<u64>(spec.oy));
  fold(static_cast<u64>(spec.ox));
  fold(static_cast<u64>(spec.kh));
  fold(static_cast<u64>(spec.kw));
  fold(static_cast<u64>(spec.sy));
  fold(static_cast<u64>(spec.sx));
  fold(static_cast<u64>(spec.pad_t));
  fold(static_cast<u64>(spec.pad_l));
  fold(static_cast<u64>(spec.pad_b));
  fold(static_cast<u64>(spec.pad_r));
  fold(static_cast<u64>(target));
  Fields(fold, tiler);
  fold(static_cast<u64>(search.kind));
  fold(static_cast<u64>(search.beam_width));
  fold(static_cast<u64>(search.population));
  fold(static_cast<u64>(search.generations));
  fold(static_cast<u64>(search.elites));
  fold(search.seed);
  fold(static_cast<u64>(search.plan_finalists));
  return fold.h;
}

Result<AccelSchedule> SearchSchedule(const AccelLayerSpec& spec,
                                     const hw::DianaConfig& cfg,
                                     AccelTarget target,
                                     const TilerOptions& tiler,
                                     const ScheduleSearchOptions& search) {
  // Untiled fast path: one pass over the whole layer beats any tiled
  // schedule, so every strategy takes it unconditionally (zero evals).
  if (auto untiled = UntiledSolution(spec, cfg, target, tiler)) {
    return BuildScheduleWithSolution(spec, cfg, target, tiler, *untiled);
  }
  const std::vector<TileSolution> candidates =
      EnumerateTileCandidates(spec, cfg, target, tiler);
  if (candidates.empty()) {
    return InfeasibleTilingStatus(spec, cfg, target, tiler);
  }
  const std::unique_ptr<ScheduleSearch> strategy =
      MakeScheduleSearch(search.kind);
  HTVM_ASSIGN_OR_RETURN(
      sol, strategy->Select(spec, cfg, target, tiler, search, candidates));
  if (search.kind != ScheduleSearchKind::kHeuristic) {
    ScheduleSearchStats::Global().RecordSearchedLayer();
  }
  return BuildScheduleWithSolution(spec, cfg, target, tiler, sol);
}

}  // namespace htvm::dory
