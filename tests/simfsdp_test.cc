// Schedule-simulator tests: the qualitative claims of the paper's evaluation
// must hold as *relationships* in the simulation (who wins, what direction a
// knob moves, where memory goes), independent of the calibration constants.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "simfsdp/schedule.h"
#include "simfsdp/workload.h"

namespace fsdp::simfsdp {
namespace {

sim::SimConstants Constants() { return sim::SimConstants{}; }

TEST(WorkloadTest, ParameterCountsMatchPaperModels) {
  EXPECT_NEAR(T5_611M().total_params() / 1e6, 611, 120);
  EXPECT_NEAR(T5_2_28B().total_params() / 1e9, 2.28, 0.4);
  EXPECT_NEAR(T5_11B().total_params() / 1e9, 11, 1.5);
  EXPECT_NEAR(GPT_175B().total_params() / 1e9, 175, 10);
  EXPECT_NEAR(DHEN(8).total_params() / 1e6, 550, 10);
  EXPECT_NEAR(RegNet_9B().total_params() / 1e9, 9, 0.5);
  EXPECT_NEAR(DeepViT_8B().total_params() / 1e9, 8, 1.5);
}

TEST(WorkloadTest, FlopCountsScaleWithModel) {
  // 2*params*tokens lower bound for transformer forward.
  Workload w = GPT_175B();
  const double fwd = w.fwd_flops_per_sample();
  EXPECT_GT(fwd, 2.0 * w.total_params() * w.tokens_per_sample * 0.9);
  EXPECT_LT(fwd, 2.0 * w.total_params() * w.tokens_per_sample * 1.6);
}

// DDP is the one interpreter at F = 1 over the bucketed plan. Its timing,
// traffic and OOM verdicts are pinned to the values the former dedicated DDP
// loop produced (printed with %.17g). Memory is not pinned: the interpreter
// also charges the unsharded gradient buffers and the head activations.
struct DdpPin {
  Workload w;
  sim::Topology topo;
  int64_t bucket_mib;
  bool ckpt;
  bool oom;
  double iter_time_us, compute_busy_us, comm_busy_us, exposed_comm_us,
      tflops_per_gpu, cross_host_bytes_per_gpu;
};

SimMetrics RunDdp(const DdpPin& p) {
  FsdpSimConfig cfg;
  cfg.sharding_factor = 1;
  cfg.param_dtype = DType::kF32;
  cfg.reduce_dtype = DType::kF32;
  cfg.activation_checkpointing = p.ckpt;
  cfg.batch_per_gpu = 8;
  return FsdpSimulator(p.w, p.topo, Constants(), cfg,
                       BuildDdpSimPlan(p.w, p.bucket_mib << 20))
      .Run();
}

TEST(DdpSimTest, MatchesPinnedDdpBaseline) {
  const sim::Topology two{2, 8}, one{1, 8};
  const double kB1Iter = 194244.41480142041, kB1Comm = 46981.507827199981;
  const double kB1Exposed = 4407.9939136019093, kB1Tflops = 88.508274913540959;
  const double kCompute611 = 189836.4208878185;
  const std::vector<DdpPin> pins = {
      {T5_611M(), two, 1, false, false, kB1Iter, kCompute611, kB1Comm,
       kB1Exposed, kB1Tflops, 5030599680},
      {T5_611M(), two, 25, false, false, kB1Iter, kCompute611, kB1Comm,
       kB1Exposed, kB1Tflops, 5030599680},
      {T5_611M(), two, 100, false, false, 195453.25908942049, kCompute611,
       37325.560153599916, 5616.8382016019896, 87.960866683724618,
       5030599680},
      {T5_611M(), two, 4000, false, false, 222652.25556942041, kCompute611,
       32799.334681599998, 32815.834681601904, 77.215647430545161,
       5030599680},
      {T5_611M(), one, 25, false, false, 191816.27043448703, kCompute611,
       18638.82421333345, 1979.8495466685272, 89.628674495242265, 0},
      // Fig 6(a): DDP OOMs beyond T5-611M on 80 GB.
      {T5_2_28B(), one, 25, false, true, 0, 0, 0, 0, 0, 0},
      {T5_11B(), one, 25, true, true, 0, 0, 0, 0, 0, 0},
  };
  for (const DdpPin& p : pins) {
    SCOPED_TRACE(p.w.name + " " + std::to_string(p.topo.world()) +
                 " GPUs, bucket " + std::to_string(p.bucket_mib) + " MiB");
    const SimMetrics m = RunDdp(p);
    EXPECT_EQ(m.oom, p.oom);
    EXPECT_EQ(m.compute_busy_us, p.compute_busy_us);
    EXPECT_EQ(m.comm_busy_us, p.comm_busy_us);
    EXPECT_EQ(m.cross_host_bytes_per_gpu, p.cross_host_bytes_per_gpu);
    EXPECT_NEAR(m.iter_time_us, p.iter_time_us, 1e-6);
    EXPECT_NEAR(m.exposed_comm_us, p.exposed_comm_us, 1e-6);
    EXPECT_NEAR(m.tflops_per_gpu, p.tflops_per_gpu, 1e-9);
  }
}

TEST(FsdpSimTest, AccommodatesModelsDdpCannot) {
  sim::Topology topo{1, 8};
  FsdpSimConfig cfg;
  cfg.batch_per_gpu = 8;
  auto m = FsdpSimulator(T5_11B(), topo, Constants(), cfg).Run();
  EXPECT_FALSE(m.oom);
  EXPECT_GT(m.tflops_per_gpu, 50);
}

TEST(FsdpSimTest, Bf16RoughlyDoublesThroughput) {
  sim::Topology topo{1, 8};
  FsdpSimConfig fp32;
  fp32.batch_per_gpu = 8;
  fp32.param_dtype = DType::kF32;
  fp32.reduce_dtype = DType::kF32;
  FsdpSimConfig bf16 = fp32;
  bf16.param_dtype = DType::kBF16;
  bf16.reduce_dtype = DType::kBF16;
  auto m32 = FsdpSimulator(T5_611M(), topo, Constants(), fp32).Run();
  auto m16 = FsdpSimulator(T5_611M(), topo, Constants(), bf16).Run();
  EXPECT_GT(m16.tflops_per_gpu, 1.7 * m32.tflops_per_gpu);
}

TEST(FsdpSimTest, ShardedMemoryShrinksWithWorldSize) {
  // Fig 8: peak memory decreases as GPUs are added (smaller shards).
  FsdpSimConfig cfg;
  cfg.batch_per_gpu = 8;
  auto at = [&](int gpus) {
    sim::Topology topo{gpus / 8, 8};
    return FsdpSimulator(T5_11B(), topo, Constants(), cfg).Run();
  };
  auto m8 = at(8), m64 = at(64), m512 = at(512);
  EXPECT_GT(m8.peak_allocated, m64.peak_allocated);
  EXPECT_GT(m64.peak_allocated, m512.peak_allocated);
  // allocated <= active <= reserved everywhere.
  for (auto* m : {&m8, &m64, &m512}) {
    EXPECT_LE(m->peak_allocated, m->peak_active);
    EXPECT_LE(m->peak_active, m->peak_reserved);
  }
}

TEST(FsdpSimTest, BackwardPrefetchImprovesThroughput) {
  // Fig 6(b): ~18% gain on GPT-175B; direction and rough size must hold at
  // every cluster scale.
  for (int hosts : {16, 32, 64}) {
    sim::Topology topo{hosts, 8};
    FsdpSimConfig on;
    on.batch_per_gpu = 2;
    FsdpSimConfig off = on;
    off.backward_prefetch = false;
    auto m_on = FsdpSimulator(GPT_175B(), topo, Constants(), on).Run();
    auto m_off = FsdpSimulator(GPT_175B(), topo, Constants(), off).Run();
    EXPECT_GT(m_on.tflops_per_gpu, 1.05 * m_off.tflops_per_gpu)
        << hosts << " hosts";
    EXPECT_LT(m_on.tflops_per_gpu, 1.6 * m_off.tflops_per_gpu);
  }
}

TEST(FsdpSimTest, RateLimiterRescuesMemoryPressuredWorkload) {
  // Fig 6(c), T5 column: FP32 + no checkpointing + max batch -> the fast CPU
  // thread over-allocates, defragmentation storms, and the limiter wins big.
  sim::Topology topo{2, 8};
  FsdpSimConfig off;
  off.batch_per_gpu = 2;
  off.param_dtype = DType::kF32;
  off.reduce_dtype = DType::kF32;
  off.activation_checkpointing = false;
  off.limit_all_gathers = 0;
  FsdpSimConfig on = off;
  on.limit_all_gathers = 2;
  auto m_off = FsdpSimulator(T5_11B(), topo, Constants(), off).Run();
  auto m_on = FsdpSimulator(T5_11B(), topo, Constants(), on).Run();
  EXPECT_GT(m_off.num_alloc_retries, 0);
  EXPECT_EQ(m_on.num_alloc_retries, 0);
  EXPECT_GT(m_off.iter_time_us, 1.5 * m_on.iter_time_us);
  // And the limiter caps the producer-stream over-allocation.
  EXPECT_LT(m_on.peak_active, m_off.peak_active);
}

TEST(FsdpSimTest, RateLimiterNeutralWithoutPressure) {
  // Fig 6(c), RegNet column: busy CPU thread, no over-allocation -> the
  // limiter must not change anything meaningfully.
  sim::Topology topo{2, 8};
  FsdpSimConfig off;
  off.batch_per_gpu = 48;
  off.param_dtype = DType::kF32;
  off.reduce_dtype = DType::kF32;
  off.activation_checkpointing = false;
  off.limit_all_gathers = 0;
  FsdpSimConfig on = off;
  on.limit_all_gathers = 2;
  auto m_off = FsdpSimulator(RegNet_9B(), topo, Constants(), off).Run();
  auto m_on = FsdpSimulator(RegNet_9B(), topo, Constants(), on).Run();
  EXPECT_EQ(m_off.num_alloc_retries, 0);
  EXPECT_NEAR(m_on.iter_time_us / m_off.iter_time_us, 1.0, 0.02);
}

TEST(FsdpSimTest, NoReshardAfterForwardSkipsBackwardAllGathers) {
  // RAF vs NRAF (Sec 5.4): NRAF trades memory for less communication.
  sim::Topology topo{2, 8};
  FsdpSimConfig raf;
  raf.batch_per_gpu = 4;
  FsdpSimConfig nraf = raf;
  nraf.reshard_after_forward = false;
  auto m_raf = FsdpSimulator(T5_11B(), topo, Constants(), raf).Run();
  auto m_nraf = FsdpSimulator(T5_11B(), topo, Constants(), nraf).Run();
  EXPECT_GT(m_raf.cross_host_bytes_per_gpu,
            1.3 * m_nraf.cross_host_bytes_per_gpu);
  EXPECT_LT(m_raf.peak_allocated, m_nraf.peak_allocated);
  EXPECT_LE(m_nraf.iter_time_us, m_raf.iter_time_us * 1.02);
}

TEST(FsdpSimTest, HybridShardingCutsCrossHostTraffic) {
  // Sec 3.2.2: intra-host shard groups keep AllGather/ReduceScatter off the
  // fabric; only the replica AllReduce crosses hosts.
  sim::Topology topo{8, 8};
  FsdpSimConfig full;
  full.batch_per_gpu = 4;
  FsdpSimConfig hybrid = full;
  hybrid.sharding_factor = 8;
  auto m_full = FsdpSimulator(T5_11B(), topo, Constants(), full).Run();
  auto m_hybrid = FsdpSimulator(T5_11B(), topo, Constants(), hybrid).Run();
  EXPECT_LT(m_hybrid.cross_host_bytes_per_gpu,
            0.5 * m_full.cross_host_bytes_per_gpu);
  // Memory-throughput trade-off: hybrid holds a host-sized shard.
  EXPECT_GT(m_hybrid.peak_allocated, m_full.peak_allocated);
}

TEST(FsdpSimTest, SimulatedTrafficMatchesAnalyticFormulas) {
  // The byte counters must agree with the paper's closed forms (Sec 3.2.2)
  // up to the (W-1)/W vs exact-group-size bookkeeping.
  sim::Topology topo{8, 8};
  const double model_bytes = T5_11B().total_params() * 2.0;  // bf16 wire
  FsdpSimConfig full;
  full.batch_per_gpu = 1;
  auto m_full = FsdpSimulator(T5_11B(), topo, Constants(), full).Run();
  const double analytic_full =
      AnalyticCrossHostTraffic(model_bytes, topo, 64, false);
  EXPECT_NEAR(m_full.cross_host_bytes_per_gpu / analytic_full, 1.0, 0.1);

  FsdpSimConfig hybrid = full;
  hybrid.sharding_factor = 8;
  auto m_hybrid = FsdpSimulator(T5_11B(), topo, Constants(), hybrid).Run();
  const double analytic_hybrid =
      AnalyticCrossHostTraffic(model_bytes, topo, 8, false);
  EXPECT_NEAR(m_hybrid.cross_host_bytes_per_gpu / analytic_hybrid, 1.0, 0.1);

  // Analytic ordering: hybrid << replication < full sharding.
  const double repl = AnalyticCrossHostTraffic(model_bytes, topo, 1, true);
  EXPECT_LT(analytic_hybrid, repl);
  EXPECT_LT(repl, analytic_full);
  EXPECT_NEAR(analytic_full / repl, 1.5, 0.01);  // 3M/2M ratio
}

TEST(FsdpSimTest, GradAccumulationWithoutCommSavesTrafficCostsMemory) {
  // Sec 3.3.4: no_sync accumulation trades memory for communication.
  sim::Topology topo{2, 8};
  FsdpSimConfig with;
  with.batch_per_gpu = 2;
  with.microbatches = 4;
  with.accum = plan::AccumMode::kReduceEveryMicrobatch;
  FsdpSimConfig without = with;
  without.accum = plan::AccumMode::kReduceLastMicrobatch;
  auto m_with = FsdpSimulator(T5_11B(), topo, Constants(), with).Run();
  auto m_without = FsdpSimulator(T5_11B(), topo, Constants(), without).Run();
  // Parameters are still re-gathered per microbatch (RAF); the saving is the
  // skipped per-microbatch gradient ReduceScatters: 12 collective volumes
  // drop to 9 for 4 microbatches.
  EXPECT_LT(m_without.cross_host_bytes_per_gpu,
            0.85 * m_with.cross_host_bytes_per_gpu);
  EXPECT_GT(m_without.peak_allocated, m_with.peak_allocated);
  EXPECT_LT(m_without.iter_time_us, m_with.iter_time_us * 1.01);
}

TEST(FsdpSimTest, FinerWrappingLowersPeakMemory) {
  // Sec 3.2.1: O(sum/F + max psi) — more units => smaller max unit => lower
  // peak parameter memory, at the price of more collectives. Emulated by
  // comparing the 54-block T5 against a 6-unit variant of the same model.
  Workload fine = T5_11B();
  Workload coarse = fine;
  coarse.units.clear();
  for (int i = 0; i < 6; ++i) {
    UnitSpec u = fine.units[0];
    u.param_numel *= 9;
    u.fwd_flops_per_sample *= 9;
    u.act_bytes_per_sample *= 9;
    u.ckpt_bytes_per_sample *= 9;
    coarse.units.push_back(u);
  }
  sim::Topology topo{2, 8};
  FsdpSimConfig cfg;
  cfg.batch_per_gpu = 2;
  auto m_fine = FsdpSimulator(fine, topo, Constants(), cfg).Run();
  auto m_coarse = FsdpSimulator(coarse, topo, Constants(), cfg).Run();
  EXPECT_LT(m_fine.peak_allocated, m_coarse.peak_allocated);
}

TEST(FsdpSimTest, DhenScalesAndHybridNrafIsFastest) {
  // Fig 7(a)/8(a): Full-Shard RAF = lowest memory & QPS; Hybrid NRAF the
  // opposite.
  sim::Topology topo{16, 8};
  const int gpus = topo.world();
  auto run = [&](int factor, bool raf) {
    FsdpSimConfig cfg;
    cfg.batch_per_gpu = 1024;
    cfg.sharding_factor = factor;
    cfg.reshard_after_forward = raf;
    cfg.activation_checkpointing = false;
    return FsdpSimulator(DHEN(gpus), topo, Constants(), cfg).Run();
  };
  auto full_raf = run(0, true);
  auto full_nraf = run(0, false);
  auto hybrid_raf = run(8, true);
  auto hybrid_nraf = run(8, false);
  EXPECT_FALSE(full_raf.oom);
  EXPECT_LE(full_raf.peak_allocated, full_nraf.peak_allocated);
  EXPECT_LE(full_nraf.peak_allocated, hybrid_nraf.peak_allocated);
  EXPECT_GE(hybrid_nraf.qps_per_gpu, full_raf.qps_per_gpu);
  EXPECT_GE(hybrid_nraf.qps_per_gpu, hybrid_raf.qps_per_gpu * 0.99);
}

TEST(FsdpSimTest, CpuOffloadTradesLatencyForMemory) {
  sim::Topology topo{1, 8};
  FsdpSimConfig on;
  on.batch_per_gpu = 8;
  on.cpu_offload_params = true;
  FsdpSimConfig off = on;
  off.cpu_offload_params = false;
  auto m_on = FsdpSimulator(T5_11B(), topo, Constants(), on).Run();
  auto m_off = FsdpSimulator(T5_11B(), topo, Constants(), off).Run();
  ASSERT_FALSE(m_on.oom);
  ASSERT_FALSE(m_off.oom);
  // Shards + optimizer state leave the device...
  EXPECT_LT(m_on.peak_allocated, m_off.peak_allocated - (10LL << 30));
  // ...but iterations slow down (PCIe copies + host optimizer).
  EXPECT_GT(m_on.iter_time_us, 1.05 * m_off.iter_time_us);
}

TEST(FsdpSimTest, CpuOffloadRescuesOom) {
  // FP32 + no checkpointing on 8 GPUs OOMs device-resident (Fig 6a's
  // boundary) but fits with offloaded shards.
  sim::Topology topo{1, 8};
  FsdpSimConfig cfg;
  cfg.batch_per_gpu = 8;
  cfg.param_dtype = DType::kF32;
  cfg.reduce_dtype = DType::kF32;
  auto dev = FsdpSimulator(T5_2_28B(), topo, Constants(), cfg).Run();
  cfg.cpu_offload_params = true;
  auto host = FsdpSimulator(T5_2_28B(), topo, Constants(), cfg).Run();
  EXPECT_FALSE(host.oom);
  EXPECT_LT(host.peak_allocated, dev.peak_allocated);
}

TEST(FsdpSimTest, WarmupIterationsConverge) {
  // Steady-state metrics must not depend on adding more warmup iterations.
  sim::Topology topo{2, 8};
  FsdpSimConfig a;
  a.batch_per_gpu = 4;
  a.iterations = 3;
  FsdpSimConfig b = a;
  b.iterations = 6;
  auto ma = FsdpSimulator(T5_11B(), topo, Constants(), a).Run();
  auto mb = FsdpSimulator(T5_11B(), topo, Constants(), b).Run();
  EXPECT_NEAR(ma.iter_time_us / mb.iter_time_us, 1.0, 0.02);
}

TEST(FsdpSimTest, TfopsBoundedByHardwarePeak) {
  for (int gpus : {8, 64, 512}) {
    sim::Topology topo{gpus / 8, 8};
    FsdpSimConfig cfg;
    cfg.batch_per_gpu = 8;
    auto m = FsdpSimulator(T5_11B(), topo, Constants(), cfg).Run();
    EXPECT_GT(m.tflops_per_gpu, 0);
    EXPECT_LT(m.tflops_per_gpu, Constants().peak_bf16_tflops);
  }
}

}  // namespace
}  // namespace fsdp::simfsdp
