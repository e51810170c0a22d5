// The execution-schedule simulator — one interpreter over the shared
// execution-plan IR (src/plan) for every point on the sharding factor F,
// DDP included.
//
// The schedule itself — when each unit's AllGather, compute, ReduceScatter,
// and free are issued relative to each other (paper Secs 3.2–3.4) — is no
// longer hand-written here: BuildSimStepPlan / BuildDdpSimPlan derive a
// plan::StepPlan via the same plan::PlanBuilder the real runtime's schedule
// is checked against, and FsdpSimulator::Run() interprets that plan's
// instructions, one representative rank, against the virtual-time
// substrate (streams + caching allocator + cost models):
//
//  * kUnshard — rate-limiter gate (its own kRateLimitGate instr), unsharded
//    buffer allocation on the communication stream, AllGather launch (CPU
//    offload prepends the H2D shard copy); prefetched unshards are the same
//    instruction issued earlier in the plan (Secs 3.3.2/3.3.3);
//  * kCompute — forward/backward kernels on the compute stream, dependent on
//    the unit's AllGather via the instruction's dep edges (backward adds 2x
//    forward cost, + recompute under activation checkpointing);
//  * kReduceGrad / kAllReduceReplicas / kGradOffloadD2H — the gradient
//    reduction chain on the single communication stream (hybrid sharding's
//    replica AllReduce, CPU offload's D2H shard copy). A DDP gradient bucket
//    is a kAllReduceReplicas covering the bucket's units at F = 1;
//  * kReshard / kFreeGrad / kFreeAct — allocator releases (record_stream
//    semantics), feeding the rate limiter's free-event queue;
//  * kWaitUnshard / kWaitReduceGrad — free in virtual time: the simulated
//    CPU thread runs ahead of the device (the Sec 3.4 model), so the wait
//    markers exist only to keep the plan's canonical projection aligned with
//    the real runtime's;
//  * kOptimStep joins the iteration.
//
// Multiple iterations replay the same plan back-to-back so the allocator
// reaches steady state (unshards of still-gathered units no-op, exactly like
// the runtime's issue guard); metrics report the last iteration. Gradient
// accumulation with/without communication follows Sec 3.3.4 (the plan
// unrolls microbatches).
#pragma once

#include "plan/builder.h"
#include "plan/passes.h"
#include "sim/allocator.h"
#include "sim/topology.h"
#include "simfsdp/workload.h"

namespace fsdp::simfsdp {

struct FsdpSimConfig {
  int sharding_factor = 0;  // 0 = full shard (F = world / tp_degree)
  /// Tensor-parallel degree composed with FSDP (paper Sec 7.1.2): every
  /// non-root unit's parameters and dense FLOPs are split 1/tp per rank
  /// (Megatron column/row slicing), so FSDP payloads shrink accordingly,
  /// and kTpAllGather/kTpAllReduce instructions run on the tp lane —
  /// intra-host (NVLink) when tp_degree <= gpus_per_host, the canonical
  /// placement. sharding_factor then counts dp-axis ranks only; the dp
  /// shard group strides across hosts at tp_degree ranks per hop.
  int tp_degree = 1;
  bool reshard_after_forward = true;
  bool backward_prefetch = true;
  bool forward_prefetch = false;
  int limit_all_gathers = 2;  // 0 disables the rate limiter
  /// CPU offload of sharded parameters/gradients/optimizer state (FSDP's
  /// CPUOffload option): persistent shards live in host memory; every
  /// unshard pays an H2D copy of the shard, every gradient shard a D2H
  /// copy, and the optimizer steps on the CPU.
  bool cpu_offload_params = false;
  DType param_dtype = DType::kBF16;
  DType reduce_dtype = DType::kBF16;
  bool activation_checkpointing = true;
  int batch_per_gpu = 1;
  int microbatches = 1;  // gradient accumulation
  /// Gradient accumulation mode (Sec 3.3.4) — the same enum the runtime's
  /// plan derives from, so real and simulated no_sync behave identically.
  plan::AccumMode accum = plan::AccumMode::kReduceEveryMicrobatch;
  /// Interpret the plan against a compiled arena layout (plan::BuildArenaPlan)
  /// instead of the caching allocator: O(1) bump allocation, one up-front
  /// reservation, no cudaMalloc retries.
  bool static_memory_plan = false;
  int iterations = 3;  // first iterations warm the allocator
  /// Record every stream op into the global obs::TraceCollector with
  /// *virtual* timestamps (pid = trace_rank, tid lanes compute/comm), so a
  /// simulated Fig 5 timeline exports straight to chrome://tracing via
  /// obs::WriteChromeTrace. The simulator replays one representative rank.
  bool record_trace = false;
  int trace_rank = 0;
};

struct SimMetrics {
  bool oom = false;
  double iter_time_us = 0;
  double tflops_per_gpu = 0;   // executed dense FLOPs / iteration time
  double qps_per_gpu = 0;      // samples / GPU / second
  double compute_busy_us = 0;  // per iteration
  double comm_busy_us = 0;
  double exposed_comm_us = 0;  // iteration time - compute busy (lower bound)
  int64_t peak_allocated = 0;
  int64_t peak_active = 0;
  int64_t peak_reserved = 0;
  int64_t num_alloc_retries = 0;  // across all simulated iterations
  double cross_host_bytes_per_gpu = 0;  // per iteration
};

/// The step plan the FSDP simulator interprets for this workload/config:
/// simulator-shape plan (split root compute, memory instructions, limiter
/// gates) over units named "[root]", "unit1", …, "unitN".
plan::StepPlan BuildSimStepPlan(const Workload& w, const sim::Topology& topo,
                                const FsdpSimConfig& cfg);

/// The plan-construction options BuildSimStepPlan derives from the simulator
/// config (prefetch policy, limiter, reshard policy, hybrid replica
/// AllReduce, microbatching). Exposed so a search over FsdpSimConfig knobs
/// can call FsdpPlanOptions::Validate() and reject an inconsistent candidate
/// (e.g. a rate limiter that would never see a free event) instead of
/// tripping BuildFsdpStepPlan's check abort.
plan::FsdpPlanOptions MakeSimPlanOptions(const Workload& w,
                                         const sim::Topology& topo,
                                         const FsdpSimConfig& cfg);

/// Pass inputs (per-unit shard / reduce payload bytes) for this workload and
/// config, from the same unit-size table Run() costs instructions with — so
/// the compiler's fusion thresholds and the interpreter agree byte-for-byte.
/// Fusion thresholds (fuse_below_bytes etc.) are left at their defaults for
/// the caller to set.
plan::PassOptions MakePassOptions(const Workload& w, const sim::Topology& topo,
                                  const FsdpSimConfig& cfg);

/// Static-memory-planning inputs: per-unit buffer sizes plus the persistent
/// base bytes Run() allocates outside the plan walk. BuildArenaPlan over the
/// simulator's plan with these options yields the layout Run() replays when
/// cfg.static_memory_plan is set.
plan::MemoryPlanOptions MakeMemoryPlanOptions(const Workload& w,
                                              const sim::Topology& topo,
                                              const sim::SimConstants& c,
                                              const FsdpSimConfig& cfg);

/// The DDP baseline's step plan: unit computes plus one kAllReduceReplicas
/// per gradient bucket, buckets placed by FP32 gradient byte counts. DDP is
/// FsdpSimulator over this plan with sharding_factor = 1 and FP32 param and
/// reduce dtypes: every rank holds the full model, and the bucket AllReduce
/// spans the world.
plan::StepPlan BuildDdpSimPlan(const Workload& w, int64_t bucket_bytes);

class FsdpSimulator {
 public:
  FsdpSimulator(Workload workload, sim::Topology topo,
                sim::SimConstants constants, FsdpSimConfig config);
  /// Interpret an explicit plan instead of the config-derived one. The plan
  /// must cover the workload's units (unit 0 = root); unit names may differ
  /// (e.g. real module FQNs from a drift test) — they become trace labels.
  FsdpSimulator(Workload workload, sim::Topology topo,
                sim::SimConstants constants, FsdpSimConfig config,
                plan::StepPlan plan);

  /// The plan Run() interprets (one training step; iterations replay it).
  const plan::StepPlan& plan() const { return plan_; }

  SimMetrics Run();

 private:
  Workload w_;
  sim::Topology topo_;
  sim::SimConstants c_;
  FsdpSimConfig cfg_;
  plan::StepPlan plan_;
};

/// Analytic per-GPU cross-host traffic for an M-byte model (paper Sec 3.2.2):
/// full replication 2M(W-1)/W, full sharding 3M(W-1)/W, hybrid sharding with
/// intra-host shard groups 2M(W-G)/(GW) (the paper approximates the last as
/// 2M(W-1)/(GW)).
double AnalyticCrossHostTraffic(double model_bytes, const sim::Topology& topo,
                                int sharding_factor, bool full_replication);

}  // namespace fsdp::simfsdp
