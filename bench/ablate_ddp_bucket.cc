// Ablation: DDP gradient-bucket size (Li et al. 2020, the paper's [13] and
// its Sec 2.1 baseline). DDP is the simulator's one interpreter at F = 1 over
// the bucketed plan (BuildDdpSimPlan): each bucket is one AllReduce across
// the world. Buckets fill whole units, so a bucket is never smaller than one
// unit's gradient: below that size the cap changes nothing. Larger caps merge
// units and delay the first reduction; one giant bucket degenerates to a
// blocking AllReduce at the end of backward. Same knee logic as Fig 2(b),
// applied to DDP.
#include <map>

#include "bench/bench_util.h"

int main() {
  using namespace fsdp;
  using namespace fsdp::bench;
  using namespace fsdp::simfsdp;
  sim::SimConstants c;
  sim::Topology topo{2, 8};
  const Workload w = T5_611M();

  Header("Ablation", "DDP bucket size, T5-611M, 16 GPUs, batch 8");
  Row("%-14s | %12s %12s %14s", "bucket (MiB)", "iter(ms)", "TFLOPS/GPU",
      "exposed comm");
  std::map<int64_t, double> iter_us;
  for (int64_t mib : {1, 5, 25, 100, 400, 4000}) {
    FsdpSimConfig cfg;
    cfg.sharding_factor = 1;
    cfg.param_dtype = DType::kF32;
    cfg.reduce_dtype = DType::kF32;
    cfg.activation_checkpointing = false;
    cfg.batch_per_gpu = 8;
    auto m = FsdpSimulator(w, topo, c, cfg, BuildDdpSimPlan(w, mib << 20))
                 .Run();
    FSDP_CHECK_MSG(!m.oom, "DDP T5-611M must fit at every bucket size");
    iter_us[mib] = m.iter_time_us;
    Row("%-14lld | %10.1fms %12.1f %12.1fms", static_cast<long long>(mib),
        m.iter_time_us / 1e3, m.tflops_per_gpu, m.exposed_comm_us / 1e3);
  }
  // Every T5-611M block's FP32 gradient (~48 MiB) fills a bucket by itself,
  // so caps of 1, 5 and 25 MiB all give the same per-block buckets.
  FSDP_CHECK_MSG(iter_us[1] == iter_us[25] && iter_us[5] == iter_us[25],
                 "caps below one block's gradient must give one plan");
  for (const auto& [mib, us] : iter_us) {
    FSDP_CHECK_MSG(mib == 4000 || us < iter_us[4000],
                   "one 4000 MiB bucket must be the slowest");
  }
  Row("\nexpected: each block's FP32 gradient (~48 MiB) fills a bucket by "
      "itself, so 1, 5 and 25 MiB give the same per-block buckets and step; "
      "larger caps merge blocks and delay reduction, and one 4000 MiB bucket "
      "exposes a blocking AllReduce after backward.");
  return 0;
}
