// Serving on the simulated clock through serve::FleetScheduler alone.
//
// InferenceServer decides every request's timing in its FleetScheduler,
// before and independently of the worker threads, from per-(model, SoC
// kind) timings it derives from the artifacts with hw::CostModel. This
// file feeds the same trace through a scheduler set up the same way, which
// yields every request's exact simulated latency (the server's own
// percentiles come from a log-bucketed histogram that rounds them by up to
// ~6%). On serve-small the result is cross-checked against the server's
// ServingMetrics; the knee ladder runs here without executing requests.
#pragma once

#include <string>
#include <vector>

#include "compiler/artifact.hpp"
#include "serve/metrics.hpp"

namespace perfbench {

struct ServeModel {
  std::string name;
  // One artifact per fleet kind, in the fleet's distinct-kind order.
  std::vector<std::pair<std::string, const htvm::compiler::Artifact*>> kinds;
};

struct ServeSetup {
  std::vector<std::string> fleet;  // SoC kind per fleet index
  int queue_capacity = 64;
  int max_batch = 4;
};

struct SimServeResult {
  std::vector<double> latencies_us;  // one per admitted request
  htvm::i64 offered = 0;
  htvm::i64 admitted = 0;
  htvm::i64 rejected = 0;
  htvm::i64 batches = 0;
  htvm::i64 max_queue_depth = 0;
  double mean_queue_depth = 0;
  double sum_us = 0;
  double max_us = 0;
};

SimServeResult SimulateServing(const std::vector<ServeModel>& models,
                               const ServeSetup& setup, double qps,
                               double duration_s, htvm::u64 seed);

// Highest ladder rate before the first rate that rejects a request or
// whose p99 exceeds 5x the slowest standalone service time (0 when the
// first rate already fails).
double KneeRps(const std::vector<ServeModel>& models, const ServeSetup& setup,
               const std::vector<double>& ladder, double duration_s,
               htvm::u64 seed);

// Empty when the replay agrees with the server's metrics on every count,
// the mean and the max, and each server percentile is the histogram
// bucket holding the exact one; otherwise what disagrees.
std::string CrossCheck(const SimServeResult& sim,
                       const htvm::serve::ServingMetrics& served);

// Distinct kinds in fleet order.
std::vector<std::string> DistinctKinds(const std::vector<std::string>& fleet);

}  // namespace perfbench
