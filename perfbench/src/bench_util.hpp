// Shared plumbing for the perfbench workloads: clocks, order statistics,
// the in-memory span tracer, the metric record and its JSON rendering.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "support/common.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using htvm::i64;
using htvm::u64;

inline i64 NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
// Percentile of a sample kept in time order, robust to bursts of host
// noise: the median, over five consecutive fifths of the sample, of each
// fifth's percentile. A burst confined to two fifths of a run moves it
// little; a plain p90 moves as soon as a tenth of the run is slow.
double SteadyPercentile(const std::vector<double>& in_order, double p);
double Geomean(const std::vector<double>& values);
// Peak resident set size of this process, in MiB.
double PeakRssMb();

// FNV-1a 64 over every tensor's dtype, shape and payload bytes.
u64 DigestTensors(const std::vector<htvm::Tensor>& tensors);
// Byte-for-byte equality of two output lists (dtype, shape and payload).
bool SameOutputs(const std::vector<htvm::Tensor>& a,
                 const std::vector<htvm::Tensor>& b);

// One span recorded around a call into a repository layer. Spans of one
// timed op share `op`; `parent` indexes the enclosing span (-1 = root).
struct Span {
  std::string name;
  i64 op = 0;
  int parent = -1;
  i64 start_ns = 0;
  i64 end_ns = 0;
};

// In-memory span recorder. Disabled tracers cost one branch per scope.
// Single-threaded: the workloads record spans from their driving thread
// only (worker threads inside the server are timed as one Drain span).
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void Enable(bool on) { enabled_ = on; }
  void BeginOp() { ++op_; }

  int Open(const char* name);
  void Close(int index);

  // Seconds of self time per span name: duration minus the part covered by
  // direct children. Also the call count per name.
  std::map<std::string, double> SelfSeconds() const;
  std::map<std::string, i64> Calls() const;

  // Chrome trace-event JSON ("X" events, one track); `path` is overwritten.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  i64 op_ = 0;
  int open_ = -1;  // innermost open span
  std::vector<Span> spans_;
};

// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.Open(name) : -1) {}
  ~Scope() {
    if (index_ >= 0) tracer_.Close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// Moves the calling thread round-robin over the CPUs the process may use.
// On a shared host the vCPUs differ in speed from moment to moment; a
// single-threaded loop that stays on one of them for a whole run inherits
// that CPU's speed, so the loops rotate once per timed op instead. Threads
// inherit the mask they are created under, so Release() before starting
// worker threads.
class CpuRotation {
 public:
  CpuRotation();
  void Next();
  void Release();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// The result every workload fills in; main renders it as the final line.
struct Report {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::map<std::string, Metric> metrics;

  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  std::string ToJson() const;
};

}  // namespace perfbench
