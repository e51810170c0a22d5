// Micro-benchmarks (google-benchmark) of the functional layer's kernels and
// autograd ops — the substrate the correctness tests run on. Not a figure
// reproduction; useful for tracking the library's own performance.
#include <algorithm>

#include <benchmark/benchmark.h>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "tensor/kernels.h"

namespace fsdp {
namespace {

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1, 0);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  Tensor c = Tensor::Empty({n, n});
  for (auto _ : state) {
    kernels::Gemm(a.data(), b.data(), c.data(), n, n, n, false, false, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The three GEMMs of ops::Linear on 64 rows, at the perfbench train_wide
// layer shapes: forward x * W^T (NT), input gradient g * W (NN) and weight
// gradient g^T * x (TN). Args are {in, out} features.
enum class LinearGemm { kForwardNT, kInputGradNN, kWeightGradTN };

void BM_GemmLinear(benchmark::State& state, LinearGemm variant) {
  const int64_t rows = 64, in = state.range(0), out = state.range(1);
  Rng rng(6, 0);
  Tensor x = Tensor::Randn({rows, in}, rng);
  Tensor w = Tensor::Randn({out, in}, rng);
  Tensor g = Tensor::Randn({rows, out}, rng);
  Tensor c = Tensor::Empty({std::max({rows * out, rows * in, out * in})});
  for (auto _ : state) {
    switch (variant) {
      case LinearGemm::kForwardNT:
        kernels::Gemm(x.data(), w.data(), c.data(), rows, out, in, false, true,
                      false);
        break;
      case LinearGemm::kInputGradNN:
        kernels::Gemm(g.data(), w.data(), c.data(), rows, in, out, false,
                      false, false);
        break;
      case LinearGemm::kWeightGradTN:
        kernels::Gemm(g.data(), x.data(), c.data(), out, in, rows, true, false,
                      false);
        break;
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * in * out);
}
BENCHMARK_CAPTURE(BM_GemmLinear, NT, LinearGemm::kForwardNT)
    ->Args({128, 128})->Args({128, 384})->Args({128, 512})->Args({512, 128});
BENCHMARK_CAPTURE(BM_GemmLinear, NN, LinearGemm::kInputGradNN)
    ->Args({128, 128})->Args({128, 384})->Args({128, 512})->Args({512, 128});
BENCHMARK_CAPTURE(BM_GemmLinear, TN, LinearGemm::kWeightGradTN)
    ->Args({128, 128})->Args({128, 384})->Args({128, 512})->Args({512, 128});

void BM_LayerNormForward(benchmark::State& state) {
  const int64_t rows = 256, cols = state.range(0);
  Rng rng(2, 0);
  Tensor x = Tensor::Randn({rows, cols}, rng);
  Tensor gamma = Tensor::Ones({cols});
  Tensor beta = Tensor::Zeros({cols});
  Tensor out = Tensor::Empty({rows, cols});
  Tensor mean = Tensor::Empty({rows});
  Tensor rstd = Tensor::Empty({rows});
  for (auto _ : state) {
    kernels::LayerNormForward(x.data(), gamma.data(), beta.data(), out.data(),
                              mean.data(), rstd.data(), rows, cols, 1e-5f);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_LayerNormForward)->Arg(256)->Arg(1024);

void BM_SoftmaxRows(benchmark::State& state) {
  const int64_t rows = 128, cols = state.range(0);
  Rng rng(3, 0);
  Tensor x = Tensor::Randn({rows, cols}, rng);
  Tensor out = Tensor::Empty({rows, cols});
  for (auto _ : state) {
    kernels::SoftmaxRows(x.data(), out.data(), rows, cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_SoftmaxRows)->Arg(128)->Arg(1024);

void BM_QuantizeBF16(benchmark::State& state) {
  Rng rng(4, 0);
  Tensor x = Tensor::Randn({1 << 16}, rng);
  for (auto _ : state) {
    Tensor y = x.CastTo(DType::kBF16);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_QuantizeBF16);

void BM_AutogradLinearBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5, 0);
  Tensor x = Tensor::Randn({32, n}, rng);
  Tensor w = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n}, rng);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  for (auto _ : state) {
    w.zero_grad();
    b.zero_grad();
    Tensor loss = ops::Sum(ops::Linear(x, w, b));
    autograd::RunBackward(loss);
    benchmark::DoNotOptimize(w.grad().data());
  }
}
BENCHMARK(BM_AutogradLinearBackward)->Arg(64)->Arg(256);

}  // namespace
}  // namespace fsdp

BENCHMARK_MAIN();
