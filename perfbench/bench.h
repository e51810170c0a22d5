// Shared pieces of the repository benchmark (see README.md): the span
// tracer, the outcome tally, the metric sink and small statistics helpers.
//
// Spans are recorded only here, around calls into each layer's public
// functions; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fsdp::perfbench {

/// Microseconds since the first call in this process (steady clock).
double NowUs();

/// Median / quantile (linear interpolation) of `v`; 0 for an empty vector.
double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);

/// The process's maximum resident set size so far, in MiB.
double MaxRssMiB();

/// Fixed pieces of work that call no library code and allocate nothing,
/// each like the work that dominates one workload: the host's slow and fast
/// phases do not slow all code alike (README.md).
enum class Calibration {
  kMatmul,     // naive 64x128x128 float matrix product (training GEMMs)
  kLoadChain,  // 2^18 dependent loads along a random cycle through 256 KiB
};

/// Median wall time (us) of `reps` runs of `kind`: the host's speed at the
/// moment, so that wall times can be scaled to a reference speed.
double CalibrateUs(Calibration kind, int reps);

/// Calibration times of the reference host speed. A wall-time metric is
/// reported as measured x reference / (median calibration time).
constexpr double kRefMatmulUs = 1000;
constexpr double kRefLoadChainUs = 1500;

constexpr double kMiB = 1024.0 * 1024.0;

/// The quantile of the step (or pass) times that step_ms reports.
constexpr double kStepQuantile = 0.25;

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int64_t id = 0;
  int64_t parent = -1;  // -1: a root span
  int64_t step = -1;    // training step or tuning pass; -1 outside a step
  int thread = 0;       // rank (or 0 for the main thread)
};

/// In-memory span store. Disabled tracers record nothing, so the untraced
/// and traced code paths are the same calls. Enable it before any worker
/// thread starts.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  /// Opens a span on the calling thread; returns its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t step);
  void End(int64_t id);
  std::vector<Span> spans() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Process-wide tracer used by the workloads.
Tracer& GlobalTracer();

/// RAII span on the global tracer; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t step = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

/// Sets the thread id stamped on spans opened by the calling thread.
void SetSpanThread(int thread);

/// Turns span recording on or off for the calling thread only (on by
/// default), so a traced run can interleave traced and untraced steps.
void SetThreadTracing(bool on);

/// Attempted / failed operation tally plus the failure messages.
class Outcome {
 public:
  /// Counts one attempted operation; records `what` as a failure unless ok.
  void Check(bool ok, const std::string& what);
  /// Counts one attempted operation that succeeded (Check(true, ...)
  /// without building a message).
  void Succeeded() { ++attempted_; }
  void Merge(const Outcome& other);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// What one workload run produces. `metrics` holds every value the run
/// measured by metric name; `exact` holds the counters that must repeat
/// exactly across runs and seeds, rendered as strings.
struct RunResult {
  Outcome outcome;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> exact;
};

/// Renders a double with all the digits needed to read it back exactly.
std::string Exact(double v);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

RunResult RunTrainWide(const Args& args);
RunResult RunPlanTune(const Args& args);

}  // namespace fsdp::perfbench
