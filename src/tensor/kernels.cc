#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace fsdp::kernels {

namespace {

// Columns of C per packed panel of B, and rows of C per register tile.
constexpr int64_t kPanelCols = 16;
constexpr int64_t kTileRows = 4;

// GCC vector types. V4 fits the baseline vector registers of x86-64 (SSE2)
// and AArch64 (NEON). V8 is used only in code compiled for AVX2: built
// without AVX it is split into 16-byte halves and runs slower than scalar
// code.
typedef float V4 __attribute__((vector_size(16)));
typedef float V8 __attribute__((vector_size(32)));

/// One row of a packed panel of B. The alignment lets the micro-kernel load
/// it with aligned whole-vector moves.
struct alignas(64) PanelRow {
  float v[kPanelCols];
};

/// This thread's scratch for one packed k x kPanelCols panel of B.
PanelRow* PanelScratch(int64_t k) {
  thread_local std::vector<PanelRow> panel;
  if (static_cast<int64_t>(panel.size()) < k) {
    panel.resize(static_cast<size_t>(k));
  }
  return panel.data();
}

/// Copies columns [j0, j0 + cols) of logical B (k x n) into panel rows
/// 0..k-1, zero-filling columns past `cols`. With trans_b, B is stored
/// (n x k) and the copy transposes it.
void PackPanel(const float* b, PanelRow* panel, int64_t n, int64_t k,
               int64_t j0, int64_t cols, bool trans_b) {
  if (cols < kPanelCols) std::fill(panel, panel + k, PanelRow{});
  if (!trans_b) {
    for (int64_t p = 0; p < k; ++p) {
      std::memcpy(panel[p].v, b + p * n + j0, static_cast<size_t>(cols) * 4);
    }
  } else {
    for (int64_t j = 0; j < cols; ++j) {
      const float* bcol = b + (j0 + j) * k;
      for (int64_t p = 0; p < k; ++p) panel[p].v[j] = bcol[p];
    }
  }
}

/// One R x kPanelCols tile of C held in registers. a(r, p) is
/// a[r * a_row + p * a_step]. Every element is c (when load_c) or 0, plus
/// a(r, p) * panel(p, .) for p = 0..k-1 in order, each product rounded
/// before its add; with add_to_c the finished sum is then added to c.
template <typename V, int64_t R>
[[gnu::always_inline]] inline void MicroTile(const float* a, int64_t a_row,
                                             int64_t a_step,
                                             const PanelRow* panel, int64_t k,
                                             float* c, int64_t ldc,
                                             bool load_c, bool add_to_c) {
  constexpr int64_t kLanes = sizeof(V) / sizeof(float);
  constexpr int64_t kVecs = kPanelCols / kLanes;
  // Unrolled so that acc lives in registers.
  V acc[R][kVecs];
#pragma GCC unroll 4
  for (int64_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int64_t v = 0; v < kVecs; ++v) {
      acc[r][v] = V{};
      if (load_c) std::memcpy(&acc[r][v], c + r * ldc + v * kLanes, sizeof(V));
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    V bv[kVecs];
#pragma GCC unroll 4
    for (int64_t v = 0; v < kVecs; ++v) {
      std::memcpy(&bv[v], panel[p].v + v * kLanes, sizeof(V));
    }
#pragma GCC unroll 4
    for (int64_t r = 0; r < R; ++r) {
      const float av = a[r * a_row + p * a_step];
#pragma GCC unroll 4
      for (int64_t v = 0; v < kVecs; ++v) acc[r][v] += av * bv[v];
    }
  }
#pragma GCC unroll 4
  for (int64_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int64_t v = 0; v < kVecs; ++v) {
      float* dst = c + r * ldc + v * kLanes;
      if (add_to_c) {
        V cv;
        std::memcpy(&cv, dst, sizeof cv);
        acc[r][v] = cv + acc[r][v];
      }
      std::memcpy(dst, &acc[r][v], sizeof(V));
    }
  }
}

template <typename V>
[[gnu::always_inline]] inline void Tile(int64_t rows, const float* a,
                                        int64_t a_row, int64_t a_step,
                                        const PanelRow* panel, int64_t k,
                                        float* c, int64_t ldc, bool load_c,
                                        bool add_to_c) {
  switch (rows) {
    case 4:
      return MicroTile<V, 4>(a, a_row, a_step, panel, k, c, ldc, load_c,
                             add_to_c);
    case 3:
      return MicroTile<V, 3>(a, a_row, a_step, panel, k, c, ldc, load_c,
                             add_to_c);
    case 2:
      return MicroTile<V, 2>(a, a_row, a_step, panel, k, c, ldc, load_c,
                             add_to_c);
    default:
      return MicroTile<V, 1>(a, a_row, a_step, panel, k, c, ldc, load_c,
                             add_to_c);
  }
}

template <typename V>
[[gnu::always_inline]] inline void PackedGemm(const float* a, const float* b,
                                              float* c, int64_t m, int64_t n,
                                              int64_t k, bool trans_a,
                                              bool trans_b, bool accumulate) {
  const int64_t a_row = trans_a ? 1 : k;
  const int64_t a_step = trans_a ? m : 1;
  // Without trans_b, C accumulates term by term; with it, each finished dot
  // product is added to C. A zero a(i, p) is multiplied like any other: for
  // finite b, adding 0 * b changes no sum except -0 (C entering as -0 with
  // accumulate), which becomes +0.
  const bool load_c = accumulate && !trans_b;
  const bool add_to_c = accumulate && trans_b;
  PanelRow* panel = PanelScratch(k);
  for (int64_t j0 = 0; j0 < n; j0 += kPanelCols) {
    const int64_t cols = std::min(kPanelCols, n - j0);
    PackPanel(b, panel, n, k, j0, cols, trans_b);
    for (int64_t i0 = 0; i0 < m; i0 += kTileRows) {
      const int64_t rows = std::min(kTileRows, m - i0);
      const float* at = a + i0 * a_row;
      float* ct = c + i0 * n + j0;
      if (cols == kPanelCols) {
        Tile<V>(rows, at, a_row, a_step, panel, k, ct, n, load_c, add_to_c);
        continue;
      }
      // Edge panel: run the full-width tile on a copy of C's columns.
      float edge[kTileRows * kPanelCols] = {};
      for (int64_t r = 0; accumulate && r < rows; ++r) {
        std::memcpy(edge + r * kPanelCols, ct + r * n,
                    static_cast<size_t>(cols) * 4);
      }
      Tile<V>(rows, at, a_row, a_step, panel, k, edge, kPanelCols, load_c,
              add_to_c);
      for (int64_t r = 0; r < rows; ++r) {
        std::memcpy(ct + r * n, edge + r * kPanelCols,
                    static_cast<size_t>(cols) * 4);
      }
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)
// AVX2 without FMA: products stay rounded before their adds.
[[gnu::target("avx2")]] void GemmAvx2(const float* a, const float* b, float* c,
                                      int64_t m, int64_t n, int64_t k,
                                      bool trans_a, bool trans_b,
                                      bool accumulate) {
  PackedGemm<V8>(a, b, c, m, n, k, trans_a, trans_b, accumulate);
}
#endif

using GemmFn = void (*)(const float*, const float*, float*, int64_t, int64_t,
                        int64_t, bool, bool, bool);

GemmFn SelectGemm() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return GemmAvx2;
#endif
  return GemmPortable;
}

}  // namespace

void GemmPortable(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k, bool trans_a, bool trans_b,
                  bool accumulate) {
  PackedGemm<V4>(a, b, c, m, n, k, trans_a, trans_b, accumulate);
}

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b, bool accumulate) {
  static const GemmFn impl = SelectGemm();
  impl(a, b, c, m, n, k, trans_a, trans_b, accumulate);
}

void Add(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void Sub(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void Mul(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void Scale(const float* a, float s, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void Accumulate(float* out, const float* a, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += a[i];
}

void AddBiasRows(const float* x, const float* bias, float* out, int64_t rows,
                 int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    for (int64_t c = 0; c < cols; ++c) or_[c] = xr[c] + bias[c];
  }
}

void BiasGradCols(const float* grad_out, float* grad_bias, int64_t rows,
                  int64_t cols, bool accumulate) {
  if (!accumulate) std::memset(grad_bias, 0, static_cast<size_t>(cols) * 4);
  for (int64_t r = 0; r < rows; ++r) {
    const float* gr = grad_out + r * cols;
    for (int64_t c = 0; c < cols; ++c) grad_bias[c] += gr[c];
  }
}

void ReluForward(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] > 0.f ? x[i] : 0.f;
}

void ReluBackward(const float* x, const float* grad_out, float* grad_in,
                  int64_t n) {
  for (int64_t i = 0; i < n; ++i) grad_in[i] = x[i] > 0.f ? grad_out[i] : 0.f;
}

namespace {
constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCoef = 0.044715f;
}  // namespace

void GeluForward(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kSqrt2OverPi * (v + kGeluCoef * v * v * v);
    out[i] = 0.5f * v * (1.f + std::tanh(inner));
  }
}

void GeluBackward(const float* x, const float* grad_out, float* grad_in,
                  int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kSqrt2OverPi * (v + kGeluCoef * v * v * v);
    const float t = std::tanh(inner);
    const float dinner = kSqrt2OverPi * (1.f + 3.f * kGeluCoef * v * v);
    const float d = 0.5f * (1.f + t) + 0.5f * v * (1.f - t * t) * dinner;
    grad_in[i] = grad_out[i] * d;
  }
}

void SigmoidForward(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = 1.f / (1.f + std::exp(-x[i]));
}

void SigmoidBackward(const float* y, const float* grad_out, float* grad_in,
                     int64_t n) {
  for (int64_t i = 0; i < n; ++i) grad_in[i] = grad_out[i] * y[i] * (1.f - y[i]);
}

void TanhForward(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

void TanhBackward(const float* y, const float* grad_out, float* grad_in,
                  int64_t n) {
  for (int64_t i = 0; i < n; ++i) grad_in[i] = grad_out[i] * (1.f - y[i] * y[i]);
}

void SoftmaxRows(const float* x, float* out, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    float mx = xr[0];
    for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, xr[c]);
    float sum = 0.f;
    for (int64_t c = 0; c < cols; ++c) {
      or_[c] = std::exp(xr[c] - mx);
      sum += or_[c];
    }
    const float inv = 1.f / sum;
    for (int64_t c = 0; c < cols; ++c) or_[c] *= inv;
  }
}

void SoftmaxBackwardRows(const float* y, const float* grad_out, float* grad_in,
                         int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* yr = y + r * cols;
    const float* gr = grad_out + r * cols;
    float* gi = grad_in + r * cols;
    float dot = 0.f;
    for (int64_t c = 0; c < cols; ++c) dot += gr[c] * yr[c];
    for (int64_t c = 0; c < cols; ++c) gi[c] = (gr[c] - dot) * yr[c];
  }
}

float CrossEntropyForward(const float* logits, const int64_t* targets,
                          float* log_probs, int64_t rows, int64_t classes) {
  double loss = 0;
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = logits + r * classes;
    float* lr = log_probs + r * classes;
    float mx = xr[0];
    for (int64_t c = 1; c < classes; ++c) mx = std::max(mx, xr[c]);
    double sum = 0;
    for (int64_t c = 0; c < classes; ++c) sum += std::exp(xr[c] - mx);
    const float logz = mx + static_cast<float>(std::log(sum));
    for (int64_t c = 0; c < classes; ++c) lr[c] = xr[c] - logz;
    loss -= lr[targets[r]];
  }
  return static_cast<float>(loss / static_cast<double>(rows));
}

void CrossEntropyBackward(const float* log_probs, const int64_t* targets,
                          float grad_loss, float* grad_logits, int64_t rows,
                          int64_t classes) {
  const float scale = grad_loss / static_cast<float>(rows);
  for (int64_t r = 0; r < rows; ++r) {
    const float* lr = log_probs + r * classes;
    float* gr = grad_logits + r * classes;
    for (int64_t c = 0; c < classes; ++c) gr[c] = std::exp(lr[c]) * scale;
    gr[targets[r]] -= scale;
  }
}

void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float* out, float* mean, float* rstd, int64_t rows,
                      int64_t cols, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* or_ = out + r * cols;
    double m = 0;
    for (int64_t c = 0; c < cols; ++c) m += xr[c];
    m /= static_cast<double>(cols);
    double var = 0;
    for (int64_t c = 0; c < cols; ++c) {
      const double d = xr[c] - m;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float rs = 1.f / std::sqrt(static_cast<float>(var) + eps);
    mean[r] = static_cast<float>(m);
    rstd[r] = rs;
    for (int64_t c = 0; c < cols; ++c) {
      or_[c] = (xr[c] - mean[r]) * rs * gamma[c] + beta[c];
    }
  }
}

void LayerNormBackward(const float* x, const float* gamma, const float* mean,
                       const float* rstd, const float* grad_out, float* grad_in,
                       float* grad_gamma, float* grad_beta, int64_t rows,
                       int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    const float* gr = grad_out + r * cols;
    float* gi = grad_in + r * cols;
    const float m = mean[r];
    const float rs = rstd[r];
    // xhat = (x - m) * rs; dxhat = g * gamma.
    double sum_dxhat = 0, sum_dxhat_xhat = 0;
    for (int64_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - m) * rs;
      const float dxhat = gr[c] * gamma[c];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xhat;
      grad_gamma[c] += gr[c] * xhat;
      grad_beta[c] += gr[c];
    }
    const float inv_cols = 1.f / static_cast<float>(cols);
    for (int64_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - m) * rs;
      const float dxhat = gr[c] * gamma[c];
      gi[c] = rs * (dxhat - inv_cols * static_cast<float>(sum_dxhat) -
                    xhat * inv_cols * static_cast<float>(sum_dxhat_xhat));
    }
  }
}

void EmbeddingGather(const float* table, const int64_t* indices, float* out,
                     int64_t rows, int64_t embed_dim) {
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(out + r * embed_dim, table + indices[r] * embed_dim,
                static_cast<size_t>(embed_dim) * 4);
  }
}

void EmbeddingScatterAdd(const float* grad_out, const int64_t* indices,
                         float* grad_table, int64_t rows, int64_t embed_dim) {
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = grad_table + indices[r] * embed_dim;
    const float* src = grad_out + r * embed_dim;
    for (int64_t c = 0; c < embed_dim; ++c) dst[c] += src[c];
  }
}

void Transpose2D(const float* x, float* out, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) out[c * rows + r] = x[r * cols + c];
  }
}

double SumAll(const float* x, int64_t n) {
  double s = 0;
  for (int64_t i = 0; i < n; ++i) s += x[i];
  return s;
}

}  // namespace fsdp::kernels
