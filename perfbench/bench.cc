#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>

namespace fsdp::perfbench {
namespace {

thread_local int64_t tls_parent = -1;
thread_local int64_t tls_step = -1;
thread_local int tls_thread = 0;
thread_local bool tls_tracing = true;

double MatmulUs() {
  constexpr int kM = 64, kK = 128, kN = 128;
  thread_local std::vector<float> a(kM * kK, 0.5f), b(kK * kN, 0.25f),
      c(kM * kN);
  const double t0 = NowUs();
  std::fill(c.begin(), c.end(), 0.f);
  for (int i = 0; i < kM; ++i) {
    for (int k = 0; k < kK; ++k) {
      const float aik = a[i * kK + k];
      for (int j = 0; j < kN; ++j) c[i * kN + j] += aik * b[k * kN + j];
    }
  }
  asm volatile("" : : "r"(c.data()) : "memory");
  return NowUs() - t0;
}

double LoadChainUs() {
  constexpr uint32_t kSlots = 1 << 16, kHops = 1 << 18;
  // One random cycle through kSlots slots (Sattolo's algorithm), 256 KiB.
  thread_local const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> v(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) v[i] = i;
    uint64_t x = 88172645463325252ull;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(v[i], v[(x >> 33) % i]);
    }
    return v;
  }();
  const double t0 = NowUs();
  uint32_t at = 0;
  for (uint32_t h = 0; h < kHops; ++h) at = next[at];
  asm volatile("" : : "r"(at) : "memory");
  return NowUs() - t0;
}

}  // namespace

double NowUs() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double MaxRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double CalibrateUs(Calibration kind, int reps) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    us.push_back(kind == Calibration::kMatmul ? MatmulUs() : LoadChainUs());
  }
  return Median(us);
}

int64_t Tracer::Begin(const char* name, int64_t step) {
  if (!enabled_ || !tls_tracing) return -1;
  if (step >= 0) tls_step = step;
  Span s;
  s.name = name;
  s.start_us = NowUs();
  s.parent = tls_parent;
  s.step = tls_step;
  s.thread = tls_thread;
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(s));
  tls_parent = spans_.back().id;
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double end = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_us = end;
  tls_parent = s.parent;
  if (s.parent < 0) tls_step = -1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

ScopedSpan::ScopedSpan(const char* name, int64_t step)
    : id_(GlobalTracer().Begin(name, step)) {}

ScopedSpan::~ScopedSpan() { GlobalTracer().End(id_); }

void SetSpanThread(int thread) { tls_thread = thread; }

void SetThreadTracing(bool on) { tls_tracing = on; }

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Outcome::Merge(const Outcome& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

std::string Exact(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace fsdp::perfbench
