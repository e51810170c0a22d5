// Micro-benchmarks (google-benchmark) of the *functional* FSDP runtime:
// whole training iterations of the thread-per-rank implementation, compared
// against DDP and across sharding strategies / knobs. These measure the real
// library's host-side overheads (hook dispatch, view creation, collectives).
#include <benchmark/benchmark.h>

#include "autograd/engine.h"
#include "core/fsdp.h"
#include "ddp/ddp.h"
#include "nn/transformer.h"
#include "optim/optimizer.h"
#include "plan/passes.h"
#include "simfsdp/schedule.h"
#include "simfsdp/workload.h"

namespace fsdp {
namespace {

nn::ModulePtr MakeModel(uint64_t seed) {
  nn::InitCtx ctx(Device::kCpu, seed);
  nn::TransformerConfig cfg;
  cfg.vocab_size = 64;
  cfg.max_seq = 16;
  cfg.dim = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 4;
  return std::make_shared<nn::TransformerModel>(cfg, ctx);
}

Tensor Tokens(int rank) {
  std::vector<int64_t> t(16);
  for (int i = 0; i < 16; ++i) t[static_cast<size_t>(i)] = (rank * 7 + i) % 64;
  return ops::IndexTensor(t, {1, 16});
}

Tensor Targets(int rank) {
  std::vector<int64_t> t(16);
  for (int i = 0; i < 16; ++i) t[static_cast<size_t>(i)] = (rank * 5 + i) % 64;
  return ops::IndexTensor(t, {16});
}

void TrainFsdp(int world, core::ShardingStrategy strategy, int factor,
               bool prefetch, int iters) {
  comm::DeviceMesh mesh(world, factor);
  RunOnRanks(world, [&](int r) {
    auto model = MakeModel(9);
    core::FsdpOptions opts;
    opts.strategy = strategy;
    opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
    opts.backward_prefetch = prefetch;
    opts.record_events = false;
    core::FullyShardedDataParallel fsdp(model, mesh, r, opts);
    optim::Adam adam(fsdp.Parameters(), {.lr = 1e-3f});
    for (int i = 0; i < iters; ++i) {
      adam.ZeroGrad();
      Tensor loss = ops::CrossEntropy(fsdp.Forward(Tokens(r)), Targets(r));
      autograd::RunBackward(loss);
      adam.Step();
    }
  });
}

void BM_FsdpIteration(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TrainFsdp(world, core::ShardingStrategy::kFullShard, world, true, 2);
  }
  state.SetItemsProcessed(state.iterations() * 2 * world);
}
BENCHMARK(BM_FsdpIteration)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_FsdpStrategies(benchmark::State& state) {
  const int idx = static_cast<int>(state.range(0));
  const core::ShardingStrategy strategies[] = {
      core::ShardingStrategy::kFullShard,
      core::ShardingStrategy::kShardGradOp,
      core::ShardingStrategy::kNoShard,
      core::ShardingStrategy::kHybridShard};
  const int factors[] = {4, 4, 1, 2};
  for (auto _ : state) {
    TrainFsdp(4, strategies[idx], factors[idx], true, 2);
  }
  state.SetLabel(core::ShardingStrategyName(strategies[idx]));
}
BENCHMARK(BM_FsdpStrategies)->DenseRange(0, 3)->UseRealTime();

void BM_CheckpointedFsdpIteration(benchmark::State& state) {
  // FSDP + activation checkpointing: the recompute's extra forward plus the
  // extra unit AllGathers, measured on the real functional runtime.
  const int world = static_cast<int>(state.range(0));
  comm::DeviceMesh mesh(world, world);
  for (auto _ : state) {
    RunOnRanks(world, [&](int r) {
      nn::InitCtx ctx(Device::kCpu, 9);
      nn::TransformerConfig cfg;
      cfg.vocab_size = 64;
      cfg.max_seq = 16;
      cfg.dim = 32;
      cfg.num_heads = 4;
      cfg.num_layers = 4;
      cfg.checkpoint_blocks = true;
      auto model = std::make_shared<nn::TransformerModel>(cfg, ctx);
      core::FsdpOptions opts;
      opts.auto_wrap_policy = core::ModuleTypePolicy({"TransformerBlock"});
      opts.record_events = false;
      auto st = core::FullyShard(model, mesh, r, opts);
      optim::Adam adam(st->Parameters(), {.lr = 1e-3f});
      for (int i = 0; i < 2; ++i) {
        adam.ZeroGrad();
        Tensor loss = ops::CrossEntropy((*model)(Tokens(r)), Targets(r));
        autograd::RunBackward(loss);
        adam.Step();
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * world);
}
BENCHMARK(BM_CheckpointedFsdpIteration)->Arg(4)->UseRealTime();

void BM_DdpIteration(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  auto comm = std::make_shared<comm::Communicator>(world);
  for (auto _ : state) {
    RunOnRanks(world, [&](int r) {
      auto model = MakeModel(9);
      ddp::DistributedDataParallel ddp(model, comm::ProcessGroup(comm, r));
      std::vector<Tensor> params;
      for (Tensor* slot : model->ParameterSlots()) params.push_back(*slot);
      optim::Adam adam(params, {.lr = 1e-3f});
      for (int i = 0; i < 2; ++i) {
        adam.ZeroGrad();
        Tensor loss = ops::CrossEntropy(ddp.Forward(Tokens(r)), Targets(r));
        autograd::RunBackward(loss);
        adam.Step();
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * world);
}
BENCHMARK(BM_DdpIteration)->Arg(2)->Arg(4)->UseRealTime();

void BM_PlanCompilerPasses(benchmark::State& state) {
  // The plan compiler on a many-small-units workload (the runtime shape
  // this binary benchmarks, scaled up): measures the rewrite pipeline's own
  // host cost, and reports the calibrated-sim schedule win as counters —
  // exposed communication time before/after PassManager::Default. The
  // 512-layer plan has thousands of instructions, where a rewrite that
  // costs O(plan size) per moved block would dominate.
  simfsdp::TransformerShape shape;
  shape.name = "many-small";
  shape.hidden = 256;
  shape.layers = static_cast<int>(state.range(0));
  shape.heads = 4;
  shape.seq = 64;
  shape.vocab = 2048;
  const simfsdp::Workload w = simfsdp::MakeTransformer(shape);
  const sim::Topology topo{2, 8};
  const sim::SimConstants c;
  simfsdp::FsdpSimConfig cfg;
  cfg.batch_per_gpu = 2;
  cfg.limit_all_gathers = 0;

  simfsdp::FsdpSimulator base(w, topo, c, cfg);
  plan::PassOptions opt = simfsdp::MakePassOptions(w, topo, cfg);
  opt.fuse_below_bytes = 8 << 20;
  opt.max_hoist_computes = 4;
  opt.max_sink_computes = 4;
  const plan::PassManager pm = plan::PassManager::Default(opt);

  plan::StepPlan optimized;
  for (auto _ : state) {
    optimized = base.plan();
    benchmark::DoNotOptimize(pm.Run(optimized).total_rewrites());
  }
  const simfsdp::SimMetrics m_base = base.Run();
  const simfsdp::SimMetrics m_opt =
      simfsdp::FsdpSimulator(w, topo, c, cfg, optimized).Run();
  state.counters["exposed_us_base"] = m_base.exposed_comm_us;
  state.counters["exposed_us_opt"] = m_opt.exposed_comm_us;
  state.counters["instrs"] = base.plan().size();
  state.SetItemsProcessed(state.iterations() * base.plan().size());
}
BENCHMARK(BM_PlanCompilerPasses)->Arg(32)->Arg(128)->Arg(512);

}  // namespace
}  // namespace fsdp

BENCHMARK_MAIN();
