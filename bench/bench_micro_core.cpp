// Microbenchmarks of the computational kernels: the cost of one ranging
// call is dominated by the sparse NDFT inversion, so these track the pieces
// that matter for real-time operation (the paper's 12 sweeps/second budget
// leaves ~80 ms per estimate).
//
// Two modes:
//  * default — a self-contained chrono harness that times every kernel and
//    emits one machine-readable `SUMMARY {"figure":"micro_core",...}` line
//    (ns/op per kernel). This needs no external dependency, runs in seconds,
//    and is registered with CTest under the `perf` label so the numbers are
//    exercised on every verify run; bench/BENCH_ndft.json records the
//    per-PR trajectory.
//  * --gbench — delegates to google-benchmark (when the build found it) for
//    full statistical output; remaining argv is forwarded, so the usual
//    --benchmark_* flags work.
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/ndft.hpp"
#include "core/ndft_kernels.hpp"
#include "core/subcarrier_interp.hpp"
#include "mathx/constants.hpp"
#include "mathx/spline.hpp"
#include "phy/band_plan.hpp"
#include "phy/csi.hpp"

#if CHRONOS_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace chronos;

std::vector<double> plan_freqs() {
  std::vector<double> f;
  for (const auto& b : phy::us_band_plan()) f.push_back(b.center_freq_hz);
  return f;
}

std::vector<std::complex<double>> test_channel() {
  const auto freqs = plan_freqs();
  std::vector<std::complex<double>> h(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    h[i] = std::polar(1.0, -mathx::kTwoPi * freqs[i] * 15e-9) +
           0.4 * std::polar(1.0, -mathx::kTwoPi * freqs[i] * 28e-9);
  }
  return h;
}

constexpr core::DelayGrid kGrid{0.0, 150e-9, 0.125e-9};

/// One timed workload: `fn` performs one op and returns a value the harness
/// sinks so the work cannot be optimised away.
struct MicroKernel {
  const char* bm_name;    ///< google-benchmark name (BM_*)
  const char* json_key;   ///< SUMMARY metric name (<key>_ns)
  std::function<double()> fn;
};

const std::vector<MicroKernel>& kernels() {
  static const std::vector<MicroKernel> all = [] {
    std::vector<MicroKernel> ks;
    const auto freqs = plan_freqs();
    const auto h = test_channel();

    // Plan build: matrix recurrence + spectral-norm power iteration (what
    // every NdftSolver, and so every RangingPipeline, pays at construction).
    ks.push_back({"BM_NdftPlanBuild", "ndft_plan_build", [freqs] {
                    const core::NdftPlan plan(freqs, kGrid, {});
                    return plan.gamma();
                  }});

    auto solver = std::make_shared<core::NdftSolver>(freqs, kGrid);
    ks.push_back({"BM_FistaSolve", "fista_solve", [solver, h] {
                    return solver->solve_fista(h).residual_norm;
                  }});
    ks.push_back({"BM_IstaSolve", "ista_solve", [solver, h] {
                    return solver->solve_ista(h).residual_norm;
                  }});

    // The pipeline's hottest matched-filter workload: a 1501-point scan of
    // the 0-60 ns window at the 0.04 ns gate-scan step (pre-PR this was a
    // std::polar per row per point; now one recurrence scan).
    ks.push_back({"BM_MatchedFilterScan", "matched_filter_scan",
                  [solver, h, out = std::vector<double>(1501)]() mutable {
                    solver->matched_filter_scan(h, 0.0, 0.04e-9, out.size(),
                                                out);
                    return out[0] + out[out.size() / 2] + out.back();
                  }});
    ks.push_back({"BM_RefineDelay", "refine_delay", [solver, h] {
                    return solver->refine_delay(h, 15e-9, 0.3e-9);
                  }});

    phy::CsiMeasurement m;
    m.band = phy::band_by_channel(36);
    m.values.resize(30);
    const auto idx = phy::intel5300_subcarrier_indices();
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const double f =
          m.band.center_freq_hz + phy::subcarrier_offset_hz(idx[k]);
      m.values[k] = std::polar(1.0, -mathx::kTwoPi * f * 20e-9);
    }
    ks.push_back({"BM_SubcarrierInterpolation", "subcarrier_interp", [m] {
                    return core::interpolate_to_center(m)
                        .zero_subcarrier.real();
                  }});

    ks.push_back({"BM_CubicSplineBuildEval", "spline_build_eval", [] {
                    std::vector<double> x(30), y(30);
                    for (int i = 0; i < 30; ++i) {
                      x[i] = i;
                      y[i] = std::sin(0.3 * i);
                    }
                    mathx::CubicSpline s(x, y);
                    return s(14.5);
                  }});
    return ks;
  }();
  return all;
}

volatile double g_sink = 0.0;

/// Times `fn` with an adaptive batch size until `min_ms` of wall time is
/// accumulated in one batch; returns ns per op.
double measure_ns_per_op(const std::function<double()>& fn, double min_ms) {
  using clock = std::chrono::steady_clock;
  g_sink = g_sink + fn();  // warmup (first-touch, tls workspace)
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    double acc = 0.0;
    for (std::size_t i = 0; i < batch; ++i) acc += fn();
    g_sink = g_sink + acc;
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    if (ms >= min_ms || batch >= (std::size_t{1} << 28)) {
      return ms * 1e6 / static_cast<double>(batch);
    }
    if (ms <= 0.01) {
      batch *= 16;
    } else {
      batch = static_cast<std::size_t>(static_cast<double>(batch) *
                                       (min_ms / ms) * 1.2) +
              1;
    }
  }
}

int run_chrono_harness() {
  bench::header("micro_core", "NDFT / estimation kernel microbenchmarks");
  double min_ms = 150.0;
  // Single-threaded harness startup; nothing concurrent reads the env.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("CHRONOS_BENCH_MIN_MS")) {
    const double v = std::atof(env);
    if (v > 0.0) min_ms = v;
  }
  std::printf("  %-28s %14s %12s\n", "kernel", "ns/op", "ms/op");
  std::vector<std::pair<std::string, double>> metrics;
  for (const auto& k : kernels()) {
    const double ns = measure_ns_per_op(k.fn, min_ms);
    std::printf("  %-28s %14.1f %12.4f\n", k.bm_name, ns, ns * 1e-6);
    metrics.emplace_back(std::string(k.json_key) + "_ns", ns);
  }
  std::printf("  (paper budget: ~80 ms per ToF estimate; see README "
              "\"Performance\")\n");
  bench::json_summary("micro_core", metrics);
  return 0;
}

#if CHRONOS_HAVE_GBENCH
void register_gbench() {
  for (const auto& k : kernels()) {
    benchmark::RegisterBenchmark(k.bm_name, [fn = k.fn](
                                                benchmark::State& state) {
      for (auto _ : state) {
        benchmark::DoNotOptimize(fn());
      }
    })->Unit(benchmark::kMillisecond);
  }
}
#endif

}  // namespace

int main(int argc, char** argv) {
  const bool want_gbench =
      argc > 1 && std::strcmp(argv[1], "--gbench") == 0;
  if (!want_gbench) return run_chrono_harness();
#if CHRONOS_HAVE_GBENCH
  // Forward the remaining argv (e.g. --benchmark_filter) to the library.
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) args.push_back(argv[i]);
  int gargc = static_cast<int>(args.size());
  register_gbench();
  benchmark::Initialize(&gargc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "bench_micro_core: built without google-benchmark; "
               "rerun without --gbench for the chrono harness\n");
  return 2;
#endif
}
