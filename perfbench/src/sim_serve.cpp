#include "sim_serve.hpp"

#include <algorithm>
#include <cmath>

#include "bench_util.hpp"
#include "hw/cost_model.hpp"
#include "serve/scheduler.hpp"
#include "serve/trace.hpp"

namespace perfbench {

using htvm::i64;
namespace serve = htvm::serve;

SimServeResult SimulateServing(const std::vector<ServeModel>& models,
                               const ServeSetup& setup, double qps,
                               double duration_s, htvm::u64 seed) {
  serve::SchedulerOptions options;
  options.fleet_size = static_cast<int>(setup.fleet.size());
  options.queue_capacity = setup.queue_capacity;
  options.max_batch = setup.max_batch;
  options.soc_kinds = setup.fleet;
  options.placement = serve::PlacementPolicy::kModelAware;
  serve::FleetScheduler scheduler(options);
  // The same timing InferenceServer registers per (model, kind).
  for (size_t m = 0; m < models.size(); ++m) {
    for (const auto& [kind, artifact] : models[m].kinds) {
      const htvm::hw::CostModel cost(artifact->hw_config);
      scheduler.SetModelTiming(
          static_cast<int>(m), kind, cost.ServiceUs(artifact->TotalFullCycles()),
          cost.BatchSavingUs(static_cast<i64>(artifact->kernels.size())));
    }
  }

  SimServeResult result;
  auto record = [&result](const std::vector<serve::ScheduledBatch>& batches) {
    for (const serve::ScheduledBatch& batch : batches) {
      for (const serve::ScheduledRequest& r : batch.requests) {
        const double latency = r.done_us - r.request.arrival_us;
        result.latencies_us.push_back(latency);
        result.sum_us += latency;
        result.max_us = std::max(result.max_us, latency);
      }
    }
  };
  htvm::u64 next_id = 0;
  std::vector<serve::ScheduledBatch> dispatched;
  for (const serve::TraceEvent& e : serve::PoissonTrace(
           qps, duration_s, seed, static_cast<int>(models.size()))) {
    dispatched.clear();
    (void)scheduler.Offer(serve::InferRequest{next_id++, e.model, e.arrival_us},
                          &dispatched);
    record(dispatched);
  }
  record(scheduler.Flush());
  result.offered = scheduler.offered();
  result.admitted = scheduler.admitted();
  result.rejected = scheduler.rejected();
  result.batches = scheduler.batches();
  result.max_queue_depth = scheduler.max_queue_depth();
  result.mean_queue_depth = scheduler.MeanQueueDepth();
  return result;
}

namespace {

// Standalone simulated service time of the slowest model on its first
// fleet kind (InferenceServer::ServiceUs).
double SlowestServiceUs(const std::vector<ServeModel>& models) {
  double slowest = 0;
  for (const ServeModel& m : models) {
    const htvm::compiler::Artifact& a = *m.kinds.front().second;
    slowest = std::max(
        slowest, htvm::hw::CostModel(a.hw_config).ServiceUs(a.TotalFullCycles()));
  }
  return slowest;
}

}  // namespace

double KneeRps(const std::vector<ServeModel>& models, const ServeSetup& setup,
               const std::vector<double>& ladder, double duration_s,
               htvm::u64 seed) {
  const double limit_us = 5.0 * SlowestServiceUs(models);
  double knee = 0;
  for (double qps : ladder) {
    const SimServeResult r = SimulateServing(models, setup, qps, duration_s, seed);
    if (r.rejected > 0 || Percentile(r.latencies_us, 99.0) > limit_us) break;
    knee = qps;
  }
  return knee;
}

namespace {

// The histogram reports the upper bound of the bucket holding the exact
// nearest-rank percentile, clamped to [min, max]; buckets are at most
// 1/16 wide relative to their value.
bool WithinBucket(const std::vector<double>& sorted, double p, double reported) {
  if (sorted.empty()) return reported == 0;
  const size_t rank = static_cast<size_t>(std::max<double>(
      1.0, std::ceil(p / 100.0 * static_cast<double>(sorted.size()))));
  const double exact = sorted[rank - 1];
  return reported + 1.0 >= exact && reported <= exact * (1.0 + 1.0 / 16) + 1.0;
}

}  // namespace

std::string CrossCheck(const SimServeResult& sim,
                       const serve::ServingMetrics& served) {
  std::vector<double> sorted = sim.latencies_us;
  std::sort(sorted.begin(), sorted.end());
  const double mean =
      sim.admitted > 0 ? sim.sum_us / static_cast<double>(sim.latencies_us.size())
                       : 0.0;
  std::string bad;
  auto expect = [&bad](bool ok, const char* what) {
    if (!ok) bad += std::string(bad.empty() ? "" : ", ") + what;
  };
  expect(sim.offered == served.offered, "offered");
  expect(sim.admitted == served.admitted, "admitted");
  expect(sim.rejected == served.rejected, "rejected");
  expect(sim.batches == served.batches, "batches");
  expect(sim.max_queue_depth == served.max_queue_depth, "max_queue_depth");
  expect(sim.mean_queue_depth == served.mean_queue_depth, "mean_queue_depth");
  expect(std::fabs(mean - served.latency_mean_us) <= 1e-6 * (1.0 + mean),
         "mean latency");
  expect(sim.max_us == served.latency_max_us, "max latency");
  expect(WithinBucket(sorted, 50.0, served.latency_p50_us), "p50 bucket");
  expect(WithinBucket(sorted, 99.0, served.latency_p99_us), "p99 bucket");
  return bad;
}

std::vector<std::string> DistinctKinds(const std::vector<std::string>& fleet) {
  std::vector<std::string> kinds;
  for (const std::string& k : fleet) {
    if (std::find(kinds.begin(), kinds.end(), k) == kinds.end()) {
      kinds.push_back(k);
    }
  }
  return kinds;
}

}  // namespace perfbench
