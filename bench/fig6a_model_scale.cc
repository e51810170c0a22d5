// Figure 6(a): model scale — FSDP vs DDP on T5-611M / 2.28B / 11B, 8 GPUs.
//
// Paper observations: FSDP ~= DDP for 611M and 2.28B; DDP OOMs beyond 2.28B;
// FSDP accommodates 11B and achieves significantly higher TFLOPS with BF16.
// (The 11B rows use activation checkpointing, which the paper's Sec 5.4
// configuration also applies; smaller models run without it.)
#include "bench/bench_util.h"

int main() {
  using namespace fsdp;
  using namespace fsdp::bench;
  using namespace fsdp::simfsdp;
  sim::SimConstants c;
  sim::Topology topo{1, 8};

  Header("Figure 6(a)", "TFLOPS per GPU by model size, 8 GPUs");
  Row("%-10s %6s | %-12s | %-14s | %-14s", "model", "batch", "DDP",
      "FSDP (FP32)", "FSDP (BF16)");

  struct Case {
    const char* name;
    Workload w;
    int batch;
    bool ckpt;
  };
  std::vector<Case> cases = {
      {"T5-611M", T5_611M(), 8, false},
      {"T5-2.28B", T5_2_28B(), 8, false},
      {"T5-11B", T5_11B(), 8, true},
  };
  std::vector<bool> ddp_oom;
  for (auto& cs : cases) {
    FsdpSimConfig f32;
    f32.batch_per_gpu = cs.batch;
    f32.param_dtype = DType::kF32;
    f32.reduce_dtype = DType::kF32;
    f32.activation_checkpointing = cs.ckpt;
    auto fsdp32 = FsdpSimulator(cs.w, topo, c, f32).Run();

    // DDP: the same interpreter at F = 1 over the bucketed AllReduce plan.
    FsdpSimConfig dc = f32;
    dc.sharding_factor = 1;
    auto ddp =
        FsdpSimulator(cs.w, topo, c, dc, BuildDdpSimPlan(cs.w, 25 << 20))
            .Run();
    ddp_oom.push_back(ddp.oom);

    FsdpSimConfig f16 = f32;
    f16.param_dtype = DType::kBF16;
    f16.reduce_dtype = DType::kBF16;
    auto fsdp16 = FsdpSimulator(cs.w, topo, c, f16).Run();

    auto cell = [](const SimMetrics& m) {
      char buf[32];
      if (m.oom) {
        snprintf(buf, sizeof(buf), "OOM");
      } else {
        snprintf(buf, sizeof(buf), "%.1f TFLOPS", m.tflops_per_gpu);
      }
      return std::string(buf);
    };
    Row("%-10s %6d | %-12s | %-14s | %-14s", cs.name, cs.batch,
        cell(ddp).c_str(), cell(fsdp32).c_str(), cell(fsdp16).c_str());
    FSDP_CHECK_MSG(!fsdp32.oom && !fsdp16.oom, "FSDP must fit every model");
    FSDP_CHECK_MSG(fsdp16.tflops_per_gpu > fsdp32.tflops_per_gpu,
                   "BF16 must beat FP32 on every model");
  }
  FSDP_CHECK_MSG(!ddp_oom.front() && ddp_oom.back(),
                 "DDP must fit T5-611M and OOM at T5-11B");
  Row("\npaper shape: FSDP ~= DDP on 611M/2.28B; DDP OOM beyond 2.28B; "
      "FSDP BF16 substantially higher TFLOPS.");
  return 0;
}
