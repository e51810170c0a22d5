// The workload configurations and the per-layer probes the workloads share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "tune/tuner.h"

namespace fsdp::perfbench {

/// Rank threads of the training workloads. Two rank threads plus their two
/// comm workers fill a 4-vCPU host; at world 4 the step time on such a host
/// varies far more from run to run.
constexpr int kWorld = 2;

/// One real-runtime training job: the model, the per-rank batch, and how
/// much of each probe a run does.
struct ModelConfig {
  const char* name;
  int64_t vocab;
  int64_t seq;
  int64_t dim;
  int64_t heads;
  int64_t layers;
  int64_t batch;        // per rank
  int setup_reps;       // setup_s is the median of this many set-ups
  int64_t rss_steps;    // rss_mib is read after this many steps (0: never)
  int check_steps;      // steps compared against the local reference
  int local_steps;      // steps per thread in the local-floor probe
  int comm_reps;        // calls per collective kind in the comm probe
  int replay_reps;      // ReplayPlan calls in the replay probe
};

/// The small job: plan_tune's traced run measures the runtime layers on it,
/// at the scale where per-collective fixed cost dominates.
extern const ModelConfig kSmallJob;

/// Runs the training job for `seconds` of timed steps and fills the
/// end-to-end metrics (untraced) or the runtime-layer metrics (traced, with
/// the local-floor, GEMM, collective and replay probes). `exact` receives
/// the per-step counters that must repeat exactly.
void RunTrainingJob(const ModelConfig& cfg, const Args& args, double seconds,
                    bool traced, RunResult* out);

/// One planning input: a named workload on a cluster.
struct PlanInput {
  std::string name;
  tune::TuneInputs inputs;
};

/// Tunes `in` with the default search space, checks the result (found, no
/// worse than the best hand-tuned preset) and returns the report.
tune::TuneReport TuneChecked(const PlanInput& in, Outcome* outcome);

/// The counters of one search that must repeat exactly across runs, and
/// the winner's simulated iteration time, as one string.
std::string SearchSignature(const tune::TuneReport& rep);

/// Plan-layer metrics over `inputs`: search counters from `reports` (one per
/// input) and the median cost of compiling, enveloping and simulating a
/// sample of each input's grid.
void PlanLayerProbes(const std::vector<PlanInput>& inputs,
                     const std::vector<tune::TuneReport>& reports,
                     RunResult* out);

}  // namespace fsdp::perfbench
