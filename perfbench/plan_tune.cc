// The planning workload: tune::Autotune on the two acceptance inputs of
// bench/ablate_autotune, plus the plan-layer probes every workload reports.
#include <algorithm>

#include "layers.h"
#include "simfsdp/schedule.h"

namespace fsdp::perfbench {
namespace {

/// T5-11B on 2x8 GPUs at batch 1 (mostly bound-pruned, many short
/// simulations) and GPT-175B on 16x8 at batch 2 (mostly memory-pruned,
/// large plans), both on a 100 GB/s inter-host fabric with 80 GiB per GPU.
std::vector<PlanInput> AcceptanceInputs() {
  std::vector<PlanInput> v(2);
  v[0].name = "t5";
  v[0].inputs.workload = simfsdp::T5_11B();
  v[0].inputs.topo = sim::Topology{2, 8};
  v[0].inputs.base.batch_per_gpu = 1;
  v[1].name = "gpt175b";
  v[1].inputs.workload = simfsdp::GPT_175B();
  v[1].inputs.topo = sim::Topology{16, 8};
  v[1].inputs.base.batch_per_gpu = 2;
  for (PlanInput& p : v) {
    p.inputs.constants.inter_host_bw_gbps = 100.0;
    p.inputs.capacity_bytes = int64_t{80} << 30;
  }
  return v;
}

/// `p` as the tuner scores it: the simulator's memory is the capacity the
/// envelope checks against (Autotune does the same).
tune::TuneInputs ScoringInputs(const PlanInput& p) {
  tune::TuneInputs in = p.inputs;
  if (in.capacity_bytes > 0) in.constants.hbm_bytes = in.capacity_bytes;
  return in;
}

simfsdp::SimMetrics Simulate(const tune::CompiledCandidate& cc,
                             const tune::TuneInputs& in) {
  return simfsdp::FsdpSimulator(cc.workload, in.topo, in.constants, cc.config,
                                cc.plan)
      .Run();
}

/// Load-chain calibration runs after each tuning pass and after each
/// set-up.
constexpr int kCalibReps = 50;
constexpr int kSetupCalibReps = 3;

/// Grid points per input whose compile / envelope / simulation cost the
/// plan-layer probe times (an even stride over the raw grid).
constexpr size_t kGridSample = 24;

}  // namespace

std::string SearchSignature(const tune::TuneReport& rep) {
  const tune::TuneCounts& c = rep.counts;
  return "raw=" + std::to_string(c.raw_candidates) +
         " presets=" + std::to_string(c.presets) +
         " invalid=" + std::to_string(c.invalid) +
         " memory=" + std::to_string(c.memory_pruned) +
         " bound=" + std::to_string(c.bound_pruned) +
         " pool=" + std::to_string(c.pool_skipped) +
         " simulated=" + std::to_string(c.simulated) +
         " sim_runs=" + std::to_string(c.sim_runs) +
         " outcomes=" + std::to_string(rep.outcomes.size()) +
         " winner=" + rep.winner.cand.Key() +
         " instrs=" + std::to_string(rep.winner.plan.size()) +
         " iter_us=" + Exact(rep.winner_metrics.iter_time_us);
}

tune::TuneReport TuneChecked(const PlanInput& in, Outcome* outcome) {
  tune::TuneReport rep =
      tune::Autotune(in.inputs, tune::SearchSpace::Default(in.inputs.topo));
  outcome->Check(rep.found, in.name + ": the tuner found no schedule");
  const double best_preset_us = rep.best_preset_metrics.iter_time_us;
  outcome->Check(rep.found && rep.winner_metrics.iter_time_us <= best_preset_us,
                 in.name + ": tuned schedule slower than preset " +
                     rep.best_preset);
  return rep;
}

void PlanLayerProbes(const std::vector<PlanInput>& inputs,
                     const std::vector<tune::TuneReport>& reports,
                     RunResult* out) {
  double candidates = 0, pruned = 0, sim_runs = 0, instrs = 0, iter_ms = 0;
  for (const tune::TuneReport& rep : reports) {
    iter_ms += rep.winner_metrics.iter_time_us / 1e3;
    candidates += static_cast<double>(rep.outcomes.size());
    pruned += static_cast<double>(rep.counts.memory_pruned +
                                  rep.counts.bound_pruned);
    sim_runs += static_cast<double>(rep.counts.sim_runs);
    instrs += static_cast<double>(rep.winner.plan.size());
  }
  auto& m = out->metrics;
  m["tune.candidates"] = candidates;
  m["tune.pruned"] = pruned;
  m["tune.sim_runs"] = sim_runs;
  m["plan.winner_instrs"] = instrs;
  m["tune.tuned_iter_ms"] = iter_ms;

  std::vector<double> compile_us, envelope_us, run_ms;
  for (const PlanInput& p : inputs) {
    const tune::TuneInputs in = ScoringInputs(p);
    const std::vector<tune::TuneCandidate> grid =
        tune::EnumerateCandidates(tune::SearchSpace::Default(in.topo));
    const size_t stride = std::max<size_t>(1, grid.size() / kGridSample);
    for (size_t k = 0; k < grid.size(); k += stride) {
      tune::CompiledCandidate cc;
      double a = NowUs();
      Status st;
      {
        ScopedSpan s("plan.compile");
        st = tune::CompileCandidate(grid[k], in, &cc);
      }
      if (!st.ok()) continue;  // knob combinations the builder rejects
      compile_us.push_back(NowUs() - a);
      a = NowUs();
      {
        ScopedSpan s("tune.envelope");
        tune::ComputeEnvelope(cc, in);
      }
      envelope_us.push_back(NowUs() - a);
      a = NowUs();
      {
        ScopedSpan s("simfsdp.run");
        Simulate(cc, in);
      }
      run_ms.push_back((NowUs() - a) / 1e3);
    }
  }
  m["plan.compile_us"] = Median(compile_us);
  m["tune.envelope_us"] = Median(envelope_us);
  m["simfsdp.run_ms"] = Median(run_ms);
}

RunResult RunPlanTune(const Args& args) {
  RunResult out;
  constexpr int kSetupReps = 51;
  std::vector<double> setup_s, setup_scaled_s;
  std::vector<PlanInput> inputs;
  // A set-up builds the inputs and their search spaces and ends with the
  // search's first step: the paper-default schedule compiled and simulated.
  // Each is scaled by a calibration right after it: the host's speed at the
  // start of the process can differ from its speed during the passes.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowUs();
    inputs = AcceptanceInputs();
    for (const PlanInput& p : inputs) {
      tune::SearchSpace::Default(p.inputs.topo);
      const tune::TuneInputs in = ScoringInputs(p);
      tune::CompiledCandidate cc;
      const Status st = tune::CompileCandidate(tune::TuneCandidate{}, in, &cc);
      out.outcome.Check(st.ok(),
                        p.name + ": default schedule: " + st.ToString());
      if (st.ok()) Simulate(cc, in);
    }
    setup_s.push_back((NowUs() - t0) / 1e6);
    setup_scaled_s.push_back(
        setup_s.back() * kRefLoadChainUs /
        CalibrateUs(Calibration::kLoadChain, kSetupCalibReps));
  }
  // The inputs are fixed; the seed only picks which one each pass tunes
  // first.
  if (args.seed % 2 == 1) std::reverse(inputs.begin(), inputs.end());

  std::vector<double> pass_ms, traced_pass_ms, calib_us;
  std::vector<tune::TuneReport> first;
  std::vector<std::string> first_sig;
  // A traced run alternates untraced and traced passes, so it needs two.
  const int64_t min_passes = args.trace ? 2 : 1;
  const double w0 = NowUs();
  for (int64_t pass = 0;
       pass < min_passes || NowUs() - w0 < args.seconds * 1e6; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    SetThreadTracing(traced);
    const double a = NowUs();
    std::vector<tune::TuneReport> reports;
    {
      ScopedSpan s("tune.pass", pass);
      for (const PlanInput& p : inputs) {
        ScopedSpan t("tune.autotune");
        reports.push_back(TuneChecked(p, &out.outcome));
      }
    }
    (traced ? traced_pass_ms : pass_ms).push_back((NowUs() - a) / 1e3);
    calib_us.push_back(CalibrateUs(Calibration::kLoadChain, kCalibReps));
    for (size_t i = 0; i < inputs.size(); ++i) {
      const std::string sig = SearchSignature(reports[i]);
      if (pass == 0) {
        first_sig.push_back(sig);
      } else {
        out.outcome.Check(sig == first_sig[i],
                          inputs[i].name + ": search differs between passes: " +
                              sig + " vs " + first_sig[i]);
      }
    }
    if (pass == 0) first = std::move(reports);
  }
  SetThreadTracing(true);

  auto& m = out.metrics;
  // As for training steps: the lower quartile, scaled to the reference
  // host speed.
  const double calib = Median(calib_us);
  m["step_ms"] = Quantile(pass_ms, kStepQuantile) * kRefLoadChainUs / calib;
  m["setup_s"] = Median(setup_scaled_s);
  m["host.calib_us"] = calib;
  m["host.step_ms_raw"] = Quantile(pass_ms, kStepQuantile);
  m["host.setup_s_raw"] = Median(setup_s);
  double peak = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const simfsdp::SimMetrics& w = first[i].winner_metrics;
    peak = std::max(peak, static_cast<double>(w.peak_allocated) / kMiB);
    out.exact["tune." + inputs[i].name] = first_sig[i];
    out.exact["tuned_iter_us." + inputs[i].name] = Exact(w.iter_time_us);
  }
  m["peak_mib"] = peak;
  m["rss_mib"] = MaxRssMiB();
  if (!args.trace) return out;

  m["trace.overhead_pct"] =
      (Median(traced_pass_ms) / Median(pass_ms) - 1) * 100;
  PlanLayerProbes(inputs, first, &out);

  // plan_tune runs no training of its own; its runtime-layer metrics come
  // from a short traced run of the small job, so every workload reports
  // every layer and the small-collective regime is measured somewhere.
  RunResult ref;
  RunTrainingJob(kSmallJob, args, /*seconds=*/5, /*traced=*/true, &ref);
  out.outcome.Merge(ref.outcome);
  for (const auto& [name, value] : ref.metrics) {
    if (!m.count(name)) m[name] = value;
  }
  return out;
}

}  // namespace fsdp::perfbench
