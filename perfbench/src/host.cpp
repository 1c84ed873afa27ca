#include "host.hpp"

#include <cstddef>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string isa_flags() {
  std::string flags;
  auto add = [&](const char* name) {
    if (!flags.empty()) flags += ' ';
    flags += name;
  };
#if defined(__SSE2__)
  add("sse2");
#endif
#if defined(__SSE4_2__)
  add("sse4.2");
#endif
#if defined(__AVX__)
  add("avx");
#endif
#if defined(__AVX2__)
  add("avx2");
#endif
#if defined(__FMA__)
  add("fma");
#endif
#if defined(__AVX512F__)
  add("avx512f");
#endif
#if defined(__aarch64__)
  add("aarch64");
#endif
  return flags.empty() ? "generic" : flags;
}

/// The reference product (see reference_kernel_ns).
class RefKernel {
 public:
  RefKernel();
  /// Wall time [ns] per product, averaged over `calls` products.
  double time_ns(int calls);

 private:
  static constexpr std::size_t kRows = 35;
  static constexpr std::size_t kCols = 1201;
  std::vector<double> a_re_, a_im_, x_re_, x_im_;
};

RefKernel::RefKernel()
    : a_re_(kRows * kCols), a_im_(kRows * kCols), x_re_(kCols), x_im_(kCols) {
  std::uint64_t state = 0x243F6A8885A308D3ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
  };
  for (std::size_t i = 0; i < a_re_.size(); ++i) {
    a_re_[i] = next();
    a_im_[i] = next();
  }
  for (std::size_t k = 0; k < kCols; ++k) {
    x_re_[k] = next();
    x_im_[k] = next();
  }
}

double RefKernel::time_ns(int calls) {
  const auto t0 = Clock::now();
  for (int c = 0; c < calls; ++c) {
    double first_re = 0.0;
    for (std::size_t r = 0; r < kRows; ++r) {
      const double* are = &a_re_[r * kCols];
      const double* aim = &a_im_[r * kCols];
      double acc_re = 0.0, acc_im = 0.0;
      for (std::size_t k = 0; k < kCols; ++k) {
        acc_re += are[k] * x_re_[k] - aim[k] * x_im_[k];
        acc_im += are[k] * x_im_[k] + aim[k] * x_re_[k];
      }
      if (r == 0) first_re = acc_re + acc_im;
    }
    // Feed the result back so no product can be elided.
    x_re_[static_cast<std::size_t>(c) % kCols] += first_re * 1e-12;
  }
  return seconds_between(t0, Clock::now()) * 1e9 / calls;
}

}  // namespace

std::string host_fingerprint_json() {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << json_escape(cpu_model())
      << "\", \"compiler\": \"" << json_escape(__VERSION__)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"isa_flags\": \"" << isa_flags() << "\"}";
  return out.str();
}

double reference_kernel_ns() {
  RefKernel kernel;
  std::vector<double> samples;
  for (int s = 0; s < 25; ++s) samples.push_back(kernel.time_ns(64));
  return median(samples);
}

double reference_burst_ns(int threads, int calls) {
  std::vector<double> per_thread(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&per_thread, t, calls]() {
      RefKernel kernel;
      per_thread[static_cast<std::size_t>(t)] = kernel.time_ns(calls);
    });
  }
  for (auto& t : pool) t.join();
  // Harmonic mean: the time per product of the threads' combined rate,
  // which is what a load-balanced parallel job runs at.
  double rate = 0.0;
  for (double ns : per_thread) rate += 1.0 / ns;
  return static_cast<double>(threads) / rate;
}

}  // namespace perfbench
