// The training workloads: real FSDP training steps in the thread-per-rank
// runtime, checked against a local Adam reference, and the probes that
// split a step into layers (local compute floor, GEMM, collectives, comm
// replay of the step plan).
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstring>
#include <limits>

#include "autograd/engine.h"
#include "comm/plan_replay.h"
#include "common/rng.h"
#include "core/fsdp.h"
#include "layers.h"
#include "nn/transformer.h"
#include "optim/optimizer.h"
#include "simfsdp/workload.h"
#include "tensor/kernels.h"

namespace fsdp::perfbench {

// 8 blocks of dim 32: many small, latency-bound collectives. Only traced
// runs use it, so it reads no RSS.
//                              vocab seq dim heads layers batch
const ModelConfig kSmallJob{"small", 256, 16, 32, 4, 8, 1,
                            /*setup_reps=*/3, /*rss_steps=*/0,
                            /*check_steps=*/4, /*local_steps=*/60,
                            /*comm_reps=*/300, /*replay_reps=*/60};

namespace {

// 4 blocks of dim 128: compute-bound, bandwidth-scale collectives.
const ModelConfig kTrainWide{"train_wide", 256, 32, 128, 4, 4, 2,
                             /*setup_reps=*/21, /*rss_steps=*/150,
                             /*check_steps=*/4, /*local_steps=*/12,
                             /*comm_reps=*/150, /*replay_reps=*/30};

constexpr int kBatchesPerRank = 8;
/// Steps at the start of a probe loop left out of its medians (lazy
/// optimizer state, first-touch allocations).
constexpr int kWarmupSteps = 2;
/// Matrix-product calibration runs per rank after each set-up and at the
/// start of each block of kTraceBlock window steps.
constexpr int kCalibReps = 5;
/// The timed window runs at least this many steps, even past `--seconds`.
constexpr int64_t kMinWindowSteps = 5;
/// A traced run alternates traced and untraced blocks of this many steps,
/// so host speed drift cancels out of trace.overhead_pct.
constexpr int64_t kTraceBlock = 8;

nn::ModulePtr MakeModel(const ModelConfig& c, uint64_t seed) {
  nn::InitCtx ctx(Device::kCpu, seed);
  nn::TransformerConfig tc;
  tc.vocab_size = c.vocab;
  tc.max_seq = c.seq;
  tc.dim = c.dim;
  tc.num_heads = c.heads;
  tc.num_layers = c.layers;
  return std::make_shared<nn::TransformerModel>(tc, ctx);
}

core::FsdpOptions JobOptions() {
  core::FsdpOptions opts;  // library defaults apart from the wrap policy
  opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
  return opts;
}

/// Adam over a local (unsharded) model's parameters.
optim::Adam LocalAdam(nn::Module& model) {
  std::vector<Tensor> params;
  for (Tensor* slot : model.ParameterSlots()) params.push_back(*slot);
  return optim::Adam(params);
}

/// One rank's token data: a fixed pool of batches drawn from the seed.
struct RankData {
  std::vector<Tensor> tokens;
  std::vector<Tensor> targets;
};

RankData MakeData(const ModelConfig& c, uint64_t seed, int rank) {
  Rng rng(seed, 1000 + static_cast<uint64_t>(rank));
  RankData d;
  const size_t n = static_cast<size_t>(c.batch * c.seq);
  for (int b = 0; b < kBatchesPerRank; ++b) {
    std::vector<int64_t> tok(n), tgt(n);
    for (auto& t : tok) t = static_cast<int64_t>(rng.NextBelow(c.vocab));
    for (auto& t : tgt) t = static_cast<int64_t>(rng.NextBelow(c.vocab));
    d.tokens.push_back(ops::IndexTensor(tok, {c.batch, c.seq}));
    d.targets.push_back(ops::IndexTensor(tgt, {c.batch * c.seq}));
  }
  return d;
}

/// Span names of one training step, so the FSDP and local runs share code.
struct StepSpans {
  const char* step;
  const char* fwd;
  const char* bwd;
  const char* optim;
};
constexpr StepSpans kFsdpSpans{"core.step", "core.fwd", "core.bwd",
                               "optim.step"};
constexpr StepSpans kLocalSpans{"nn.local_step", "nn.fwd", "autograd.bwd",
                                "nn.local_optim"};
constexpr StepSpans kLocal1Spans{"nn.local1_step", "nn.fwd", "autograd.bwd",
                                 "nn.local_optim"};

/// One optimizer step: module call, loss, autograd::RunBackward, Adam step.
Tensor TrainStep(nn::Module& model, optim::Adam& adam, const RankData& data,
                 int64_t step, const StepSpans& names) {
  ScopedSpan s(names.step, step);
  const size_t b = static_cast<size_t>(step % kBatchesPerRank);
  adam.ZeroGrad();
  Tensor logits;
  {
    ScopedSpan f(names.fwd);
    logits = model(data.tokens[b]);
  }
  Tensor loss;
  {
    ScopedSpan l("nn.loss");
    loss = ops::CrossEntropy(logits, data.targets[b]);
  }
  {
    ScopedSpan g(names.bwd);
    autograd::RunBackward(loss);
  }
  {
    ScopedSpan o(names.optim);
    adam.Step();
  }
  return loss;
}

/// Everything one FSDP training run records (rank 0 unless noted).
struct TrainRecord {
  std::vector<double> setup_s;        // one per set-up
  std::vector<double> setup_calib_us; // calibration right after each set-up
  std::vector<double> step_ms;        // window steps run untraced
  std::vector<double> traced_step_ms; // window steps run traced
  int64_t first_window_step = 0;
  int64_t window_steps = 0;
  double window_s = 0;
  double peak_mib = 0;
  double rss_mib = 0;
  std::vector<double> calib_us;       // one per window block
  comm::CommStats comm_before, comm_after;
  int64_t log_before = 0, log_after = 0;
  int waits_before = 0, waits_after = 0;
  int throttled_before = 0, throttled_after = 0;
  int max_inflight = 0;
  double mean_shard_numel = 0;
  std::vector<std::vector<float>> losses;   // [rank][check step]
  std::vector<plan::StepPlan> plans;        // [rank] ExpectedStepPlan()
  std::vector<Outcome> outcomes;            // [rank]
};

int64_t LogEntries(const core::FsdpState& st) {
  return static_cast<int64_t>(st.trace_events().size() +
                              st.executed_plan().size());
}

/// Sets up the job `cfg.setup_reps` times (each set-up ends with its first
/// step); the last set-up goes on to the checked steps and the timed window.
TrainRecord RunFsdp(const ModelConfig& cfg, const std::vector<RankData>& data,
                    uint64_t seed, double seconds, bool traced) {
  TrainRecord rec;
  rec.losses.assign(kWorld, {});
  rec.plans.resize(kWorld);
  rec.outcomes.resize(kWorld);
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    const bool last = rep + 1 == cfg.setup_reps;
    const double t0 = NowUs();
    comm::DeviceMesh mesh(kWorld, kWorld);
    std::barrier<> sync(kWorld);
    std::atomic<int64_t> stop_after{std::numeric_limits<int64_t>::max()};
    double setup_end = 0, setup_calib = 0, w0 = 0;
    RunOnRanks(kWorld, [&](int r) {
      SetSpanThread(r);
      Outcome& outcome = rec.outcomes[static_cast<size_t>(r)];
      auto model = MakeModel(cfg, seed);
      std::shared_ptr<core::FsdpState> st;
      {
        ScopedSpan s("core.fully_shard");
        st = core::FullyShard(model, mesh, r, JobOptions());
      }
      optim::Adam adam(st->Parameters());
      int64_t step = 0;
      auto run_step = [&](bool check) {
        Tensor loss = TrainStep(*model, adam, data[static_cast<size_t>(r)],
                                step, kFsdpSpans);
        if (!st->status().ok()) {
          outcome.Check(false, "rank " + std::to_string(r) + " step " +
                                   std::to_string(step) + ": " +
                                   st->status().ToString());
        } else {
          outcome.Succeeded();
        }
        if (check) rec.losses[static_cast<size_t>(r)].push_back(loss.item());
        ++step;
      };
      run_step(/*check=*/last);  // the first step ends the set-up
      sync.arrive_and_wait();
      if (r == 0) setup_end = NowUs();
      // Both ranks calibrate at once, as both compute in a step.
      const double calib = CalibrateUs(Calibration::kMatmul, kCalibReps);
      if (r == 0) setup_calib = calib;
      if (!last) return;

      while (step < cfg.check_steps) run_step(/*check=*/true);
      comm::ProcessGroup pg = mesh.ShardGroup(r);
      sync.arrive_and_wait();
      if (r == 0) {
        Storage::ResetPeakBytes();
        rec.comm_before = pg.stats();
        rec.log_before = LogEntries(*st);
        rec.waits_before = st->waits_on_pending();
        rec.throttled_before = st->throttled_prefetches();
        rec.first_window_step = step;
        w0 = NowUs();
      }
      sync.arrive_and_wait();
      for (int64_t i = 0; i < stop_after.load(); ++i) {
        const bool traced_block = traced && (i / kTraceBlock) % 2 == 1;
        SetThreadTracing(traced_block);
        if (i % kTraceBlock == 0) {
          const double us = CalibrateUs(Calibration::kMatmul, kCalibReps);
          if (r == 0) rec.calib_us.push_back(us);
        }
        const double a = NowUs();
        run_step(/*check=*/false);
        if (r != 0) continue;
        const double now = NowUs();
        (traced_block ? rec.traced_step_ms : rec.step_ms)
            .push_back((now - a) / 1e3);
        if (step == cfg.rss_steps) rec.rss_mib = MaxRssMiB();
        // Rank 1 cannot finish step i+1 before rank 0 joins its
        // collectives, so it sees the new bound before testing it again:
        // both ranks stop after step i+1.
        if (stop_after.load() == std::numeric_limits<int64_t>::max() &&
            now - w0 >= seconds * 1e6 && step >= cfg.rss_steps &&
            i + 1 >= kMinWindowSteps) {
          stop_after.store(i + 2);
        }
      }
      SetThreadTracing(true);
      sync.arrive_and_wait();
      if (r == 0) {
        rec.window_s = (NowUs() - w0) / 1e6;
        rec.window_steps = stop_after.load();
        rec.peak_mib = static_cast<double>(Storage::peak_bytes()) / kMiB;
        rec.comm_after = pg.stats();
        rec.log_after = LogEntries(*st);
        rec.waits_after = st->waits_on_pending();
        rec.throttled_after = st->throttled_prefetches();
        rec.max_inflight = st->max_inflight_unshards();
        double shard = 0;
        for (int u = 0; u < st->num_units(); ++u) {
          shard += static_cast<double>(st->unit_handle(u).shard_numel());
        }
        rec.mean_shard_numel = shard / st->num_units();
      }
      rec.plans[static_cast<size_t>(r)] = st->ExpectedStepPlan();
    });
    rec.setup_s.push_back((setup_end - t0) / 1e6);
    rec.setup_calib_us.push_back(setup_calib);
  }
  return rec;
}

/// The mean-over-ranks loss of the first `steps` steps of the same job
/// trained locally: one model, Adam on the loss averaged over the ranks'
/// batches (the FSDP gradient is the average of the ranks' gradients).
std::vector<float> LocalReferenceLosses(const ModelConfig& cfg,
                                        const std::vector<RankData>& data,
                                        uint64_t seed, int steps) {
  auto model = MakeModel(cfg, seed);
  optim::Adam adam = LocalAdam(*model);
  std::vector<float> losses;
  for (int s = 0; s < steps; ++s) {
    adam.ZeroGrad();
    double sum = 0;
    for (int r = 0; r < kWorld; ++r) {
      const RankData& d = data[static_cast<size_t>(r)];
      Tensor loss = ops::CrossEntropy((*model)(d.tokens[s % kBatchesPerRank]),
                                      d.targets[s % kBatchesPerRank]);
      sum += loss.item();
      autograd::RunBackward(ops::ScalarMul(loss, 1.f / kWorld));
    }
    losses.push_back(static_cast<float>(sum / kWorld));
    adam.Step();
  }
  return losses;
}

/// Durations (ms) of spans called `name` on `thread` whose root span is
/// called `root` and whose step is at least `min_step`.
std::vector<double> SpanMs(const std::vector<Span>& spans, const char* name,
                           const char* root, int thread, int64_t min_step) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name || s.thread != thread || s.step < min_step) continue;
    const Span* top = &s;
    while (top->parent >= 0) top = &spans[static_cast<size_t>(top->parent)];
    if (top->name == root) out.push_back((s.end_us - s.start_us) / 1e3);
  }
  return out;
}

/// The compute floor: the same model trained with no FSDP, first on kWorld
/// concurrent threads (one per rank, as the FSDP run shares the host), then
/// on one thread.
void LocalFloorProbe(const ModelConfig& cfg, const std::vector<RankData>& data,
                     uint64_t seed) {
  auto train = [&](int r, const StepSpans& names) {
    auto model = MakeModel(cfg, seed);
    optim::Adam adam = LocalAdam(*model);
    for (int64_t s = 0; s < cfg.local_steps; ++s) {
      TrainStep(*model, adam, data[static_cast<size_t>(r)], s, names);
    }
  };
  RunOnRanks(kWorld, [&](int r) {
    SetSpanThread(r);
    train(r, kLocalSpans);
  });
  SetSpanThread(0);
  train(0, kLocal1Spans);
}

/// Achieved GFLOP/s of kernels::Gemm at the job's linear-layer shapes, for
/// the three transpose variants ops::Linear uses: forward x*W^T (NT), input
/// gradient g*W (NN) and weight gradient g^T*x (TN).
void GemmProbe(const ModelConfig& cfg, uint64_t seed, RunResult* out) {
  const int64_t rows = cfg.batch * cfg.seq, d = cfg.dim;
  const int64_t shapes[][2] = {{d, 3 * d}, {d, d}, {d, 4 * d}, {4 * d, d},
                               {d, cfg.vocab}};  // {in, out}
  Rng rng(seed, 7);
  auto fill = [&](std::vector<float>& v, size_t n) {
    v.resize(n);
    for (float& x : v) x = static_cast<float>(rng.NextUniform(-1, 1));
  };
  struct Variant {
    const char* metric;
    double flops = 0;
    double us = 0;
  };
  Variant variants[3] = {{"tensor.gemm_nt_gflops"}, {"tensor.gemm_nn_gflops"},
                         {"tensor.gemm_tn_gflops"}};
  std::vector<float> x, w, g, c;
  for (const auto& shape : shapes) {
    const int64_t in = shape[0], outf = shape[1];
    fill(x, static_cast<size_t>(rows * in));
    fill(w, static_cast<size_t>(outf * in));
    fill(g, static_cast<size_t>(rows * outf));
    c.assign(static_cast<size_t>(std::max({rows * outf, rows * in, outf * in})),
             0.f);
    for (int v = 0; v < 3; ++v) {
      auto call = [&] {
        if (v == 0) {
          kernels::Gemm(x.data(), w.data(), c.data(), rows, outf, in, false,
                        true, false);
        } else if (v == 1) {
          kernels::Gemm(g.data(), w.data(), c.data(), rows, in, outf, false,
                        false, false);
        } else {
          kernels::Gemm(g.data(), x.data(), c.data(), outf, in, rows, true,
                        false, false);
        }
      };
      call();  // warm the caches
      ScopedSpan s("tensor.gemm");
      const double a = NowUs();
      int64_t calls = 0;
      while (calls < 3 || NowUs() - a < 20e3) {
        call();
        ++calls;
      }
      variants[v].us += NowUs() - a;
      variants[v].flops += 2.0 * rows * in * outf * static_cast<double>(calls);
    }
  }
  double flops = 0, us = 0;
  for (const Variant& v : variants) {
    out->metrics[v.metric] = v.flops / v.us / 1e3;
    flops += v.flops;
    us += v.us;
  }
  out->metrics["tensor.gemm_gflops"] = flops / us / 1e3;
}

/// Median time (us) of one memcpy of `floats` floats.
double MemcpyUs(int64_t floats) {
  std::vector<float> src(static_cast<size_t>(floats), 1.f), dst(src.size());
  const size_t bytes = src.size() * sizeof(float);
  const int64_t per_sample = std::max<int64_t>(1, (1 << 22) / bytes);
  std::vector<double> samples;
  for (int s = 0; s < 31; ++s) {
    const double a = NowUs();
    for (int64_t k = 0; k < per_sample; ++k) {
      std::memcpy(dst.data(), src.data(), bytes);
      asm volatile("" : : "r"(dst.data()) : "memory");
    }
    samples.push_back((NowUs() - a) / static_cast<double>(per_sample));
  }
  return Median(samples);
}

/// Direct async AllGatherBase / ReduceScatter calls at the job's mean shard
/// size on a fresh communicator: queue delay (issue to worker start) and
/// service time (worker start to completion) from the Work timestamps, the
/// round trip of a synchronous call, and service time against a memcpy of
/// the gathered (or reduced) bytes.
void CommProbe(const ModelConfig& cfg, int64_t n, Outcome* outcome,
               RunResult* out) {
  auto communicator = std::make_shared<comm::Communicator>(kWorld);
  std::barrier<> sync(kWorld);
  constexpr int kWarm = 10;
  std::vector<double> agq, ags, rsq, rss, sync_us;
  std::vector<Outcome> outcomes(kWorld);
  RunOnRanks(kWorld, [&](int r) {
    SetSpanThread(r);
    comm::ProcessGroup pg(communicator, r);
    std::vector<float> src(static_cast<size_t>(kWorld * n), 1.f + r);
    std::vector<float> dst(src.size());
    comm::CollectiveOptions async_opts;
    async_opts.async = true;
    Outcome& o = outcomes[static_cast<size_t>(r)];
    auto timed = [&](const char* name, auto issue, std::vector<double>* q,
                     std::vector<double>* s) {
      for (int i = 0; i < kWarm + cfg.comm_reps; ++i) {
        sync.arrive_and_wait();
        ScopedSpan span(name);
        const comm::Work w = issue();
        const Status st = w.WaitStatus();
        o.Check(st.ok(), std::string(name) + ": " + st.ToString());
        if (r == 0 && i >= kWarm) {
          q->push_back(w.start_us() - w.issue_us());
          s->push_back(w.complete_us() - w.start_us());
        }
      }
    };
    timed("comm.allgather", [&] {
      return pg.AllGatherBase(dst.data(), src.data(), n, async_opts);
    }, &agq, &ags);
    timed("comm.reducescatter", [&] {
      return pg.ReduceScatter(dst.data(), src.data(), n, async_opts);
    }, &rsq, &rss);
    for (int i = 0; i < kWarm + cfg.comm_reps; ++i) {
      sync.arrive_and_wait();
      ScopedSpan span("comm.sync_allgather");
      const double a = NowUs();
      const Status st =
          pg.AllGatherBase(dst.data(), src.data(), n).WaitStatus();
      if (r == 0 && i >= kWarm) sync_us.push_back(NowUs() - a);
      o.Check(st.ok(), "sync allgather: " + st.ToString());
    }
  });
  for (const Outcome& o : outcomes) outcome->Merge(o);
  const double memcpy_us = MemcpyUs(kWorld * n);
  out->metrics["comm.ag_queue_us"] = Median(agq);
  out->metrics["comm.ag_service_us"] = Median(ags);
  out->metrics["comm.rs_queue_us"] = Median(rsq);
  out->metrics["comm.rs_service_us"] = Median(rss);
  out->metrics["comm.ag_vs_memcpy"] = Median(ags) / memcpy_us;
  out->metrics["comm.rs_vs_memcpy"] = Median(rss) / memcpy_us;
  out->metrics["comm.sync_call_us"] = Median(sync_us);
}

/// comm::ReplayPlan of each rank's ExpectedStepPlan() with no compute, at
/// the job's mean shard size: the step's collective schedule alone.
void ReplayProbe(const ModelConfig& cfg,
                 const std::vector<plan::StepPlan>& plans, int64_t n,
                 Outcome* outcome, RunResult* out) {
  auto communicator = std::make_shared<comm::Communicator>(kWorld);
  std::barrier<> sync(kWorld);
  std::vector<double> ms;
  std::vector<Outcome> outcomes(kWorld);
  RunOnRanks(kWorld, [&](int r) {
    SetSpanThread(r);
    comm::ProcessGroup pg(communicator, r);
    comm::ReplayOptions opts;
    opts.unit_numel = n;
    for (int i = 0; i < kWarmupSteps + cfg.replay_reps; ++i) {
      sync.arrive_and_wait();
      ScopedSpan span("comm.replay", i);
      const double a = NowUs();
      const Status st =
          comm::ReplayPlan(pg, plans[static_cast<size_t>(r)], opts);
      if (r == 0 && i >= kWarmupSteps) ms.push_back((NowUs() - a) / 1e3);
      outcomes[static_cast<size_t>(r)].Check(st.ok(),
                                             "ReplayPlan: " + st.ToString());
    }
  });
  for (const Outcome& o : outcomes) outcome->Merge(o);
  out->metrics["comm.replay_step_ms"] = Median(ms);
}

}  // namespace

void RunTrainingJob(const ModelConfig& cfg, const Args& args, double seconds,
                    bool traced, RunResult* out) {
  std::vector<RankData> data;
  for (int r = 0; r < kWorld; ++r) data.push_back(MakeData(cfg, args.seed, r));
  TrainRecord rec = RunFsdp(cfg, data, args.seed, seconds, traced);
  for (const Outcome& o : rec.outcomes) out->outcome.Merge(o);

  const std::vector<float> ref =
      LocalReferenceLosses(cfg, data, args.seed, cfg.check_steps);
  for (int s = 0; s < cfg.check_steps; ++s) {
    double fsdp = 0;
    for (const auto& l : rec.losses) {
      fsdp += static_cast<size_t>(s) < l.size() ? l[static_cast<size_t>(s)]
                                                 : std::nan("");
    }
    fsdp /= kWorld;
    const double want = ref[static_cast<size_t>(s)];
    out->outcome.Check(
        std::abs(fsdp - want) <= 1e-4 * std::max(1.0, std::abs(want)),
        "step " + std::to_string(s) + " loss " + Exact(fsdp) +
            " != local reference " + Exact(want));
  }

  auto& m = out->metrics;
  const double steps = static_cast<double>(rec.window_steps);
  // The lower quartile: on a shared VM the hypervisor takes CPU time away
  // (steal) in bursts, which moves the median from run to run more than
  // the fast steps. Step and set-up times are scaled to the reference host
  // speed (README.md), each set-up by the calibration right after it.
  const double raw_step_ms = Quantile(rec.step_ms, kStepQuantile);
  const double calib_us = Median(rec.calib_us);
  std::vector<double> setup_scaled_s;
  for (size_t i = 0; i < rec.setup_s.size(); ++i) {
    setup_scaled_s.push_back(rec.setup_s[i] * kRefMatmulUs /
                             rec.setup_calib_us[i]);
  }
  m["step_ms"] = raw_step_ms * kRefMatmulUs / calib_us;
  m["setup_s"] = Median(setup_scaled_s);
  m["host.calib_us"] = calib_us;
  m["host.step_ms_raw"] = raw_step_ms;
  m["host.setup_s_raw"] = Median(rec.setup_s);
  m["train.step_p50_ms"] = Median(rec.step_ms);
  m["train.samples_per_s"] = steps * cfg.batch * kWorld / rec.window_s;
  m["peak_mib"] = rec.peak_mib;
  m["rss_mib"] = rec.rss_mib;
  m["train.step_p90_ms"] = Quantile(rec.step_ms, 0.9);

  const comm::CommStats& a = rec.comm_before;
  const comm::CommStats& b = rec.comm_after;
  const double bytes =
      static_cast<double>((b.allgather_bytes - a.allgather_bytes) +
                          (b.reducescatter_bytes - a.reducescatter_bytes) +
                          (b.allreduce_bytes - a.allreduce_bytes) +
                          (b.broadcast_bytes - a.broadcast_bytes));
  const std::map<std::string, double> exact = {
      {"comm.ag_calls_per_step", (b.allgather_ops - a.allgather_ops) / steps},
      {"comm.rs_calls_per_step",
       (b.reducescatter_ops - a.reducescatter_ops) / steps},
      {"comm.ar_calls_per_step", (b.allreduce_ops - a.allreduce_ops) / steps},
      {"comm.bytes_per_step", bytes / steps},
      {"core.throttled_per_step",
       (rec.throttled_after - rec.throttled_before) / steps},
      {"core.max_inflight", static_cast<double>(rec.max_inflight)},
      {"obs.log_entries_per_step", (rec.log_after - rec.log_before) / steps},
  };
  for (const auto& [name, value] : exact) {
    m[name] = value;
    out->exact[name] = Exact(value);
  }
  m["core.waits_on_pending_per_step"] =
      (rec.waits_after - rec.waits_before) / steps;
  if (!traced) return;

  const std::vector<Span> spans = GlobalTracer().spans();
  const int64_t w0 = rec.first_window_step;
  m["core.fwd_ms"] = Median(SpanMs(spans, "core.fwd", "core.step", 0, w0));
  m["core.bwd_ms"] = Median(SpanMs(spans, "core.bwd", "core.step", 0, w0));
  m["optim.step_ms"] =
      Median(SpanMs(spans, "optim.step", "core.step", 0, w0));
  m["core.setup_ms"] = Median(
      SpanMs(spans, "core.fully_shard", "core.fully_shard", 0, -1));
  m["trace.overhead_pct"] =
      (Median(rec.traced_step_ms) / Median(rec.step_ms) - 1) * 100;

  const int64_t n = std::llround(rec.mean_shard_numel);
  m["comm.shard_bytes"] = static_cast<double>(n * sizeof(float));
  LocalFloorProbe(cfg, data, args.seed);
  GemmProbe(cfg, args.seed, out);
  CommProbe(cfg, n, &out->outcome, out);
  ReplayProbe(cfg, rec.plans, n, &out->outcome, out);

  const std::vector<Span> all = GlobalTracer().spans();
  m["nn.local_step_ms"] = Median(
      SpanMs(all, "nn.local_step", "nn.local_step", 0, kWarmupSteps));
  m["nn.fwd_ms"] =
      Median(SpanMs(all, "nn.fwd", "nn.local_step", 0, kWarmupSteps));
  m["autograd.bwd_ms"] =
      Median(SpanMs(all, "autograd.bwd", "nn.local_step", 0, kWarmupSteps));
  m["nn.local1_step_ms"] = Median(
      SpanMs(all, "nn.local1_step", "nn.local1_step", 0, kWarmupSteps));
  m["core.overhead_ms"] = m["train.step_p50_ms"] - m["nn.local_step_ms"];
}

namespace {

/// The planning input that describes a training job: its model as a
/// simulator workload on its own world size.
PlanInput PlanInputFor(const ModelConfig& cfg) {
  simfsdp::TransformerShape shape;
  shape.name = cfg.name;
  shape.hidden = cfg.dim;
  shape.layers = cfg.layers;
  shape.heads = cfg.heads;
  shape.seq = cfg.seq;
  shape.vocab = cfg.vocab;
  PlanInput p{cfg.name, {}};
  p.inputs.workload = simfsdp::MakeTransformer(shape);
  p.inputs.topo = sim::Topology{1, kWorld};
  p.inputs.base.batch_per_gpu = static_cast<int>(cfg.batch);
  return p;
}

}  // namespace

RunResult RunTrainWide(const Args& args) {
  RunResult out;
  RunTrainingJob(kTrainWide, args, args.seconds, args.trace, &out);
  if (args.trace) {
    const PlanInput in = PlanInputFor(kTrainWide);
    tune::TuneReport rep;
    {
      ScopedSpan s("tune.autotune");
      rep = TuneChecked(in, &out.outcome);
    }
    out.exact["tune." + in.name] = SearchSignature(rep);
    out.exact["tuned_iter_us." + in.name] =
        Exact(rep.winner_metrics.iter_time_us);
    PlanLayerProbes({in}, {rep}, &out);
  }
  return out;
}

}  // namespace fsdp::perfbench
