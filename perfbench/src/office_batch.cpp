// office_batch: offline fleet ranging over the replayed office corpus.
#include <atomic>
#include <memory>
#include <thread>

#include "core/engine.hpp"
#include "core/session.hpp"
#include "corpus.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLinks = 384;
constexpr std::size_t kJobLinks = 128;  // one fleet ranging job
constexpr int kThreads = 4;
constexpr int kSetupReps = 3;
constexpr int kRefCalls = 64;  // reference products per thread per burst

struct LoopStats {
  std::vector<double> job_ms;  ///< wall time of each measure_batch call
  std::vector<double> ref_ns;  ///< reference kernel around each call
  /// The loop's own time between calls (result checks), reference bursts
  /// excluded: how late the closed loop issues its next job.
  std::vector<double> gap_ms;
  std::uint64_t ranges = 0;
  std::uint64_t ok = 0;
  double busy_s = 0.0;

  /// Job wall times at reference speed.
  std::vector<double> norm_ms() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < job_ms.size(); ++i) {
      out.push_back(job_ms[i] * kRefNominalNs / ref_ns[i]);
    }
    return out;
  }
};

}  // namespace

void run_office_batch(const Options& opt, Report& rep, Tracer& tracer) {
  using namespace chronos;

  // ---- set-up: corpus synthesis + calibration + engine, several times;
  // each repetition first drops the previous one.
  std::vector<double> setup_s;
  Corpus corpus;
  std::unique_ptr<core::ChronosEngine> engine;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::uint64_t previous = corpus.fingerprint;
    engine.reset();
    corpus = Corpus{};
    const auto t0 = Clock::now();
    corpus = build_corpus(opt.seed, kLinks, kThreads);
    engine = std::make_unique<core::ChronosEngine>(corpus.trace,
                                                   corpus.engine_config);
    engine->set_calibration(corpus.calibration);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (r > 0 && corpus.fingerprint != previous) {
      rep.fail("corpus synthesis is not deterministic across set-ups");
    }
  }
  const core::RangingPipeline& pipeline = engine->pipeline();
  const core::CalibrationTable& cal = engine->calibration();

  // ---- reference: sequential RangingPipeline::estimate of every sweep.
  std::vector<core::RangingResult> reference(kLinks);
  {
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
      for (std::size_t i = next.fetch_add(1); i < kLinks; i = next.fetch_add(1)) {
        reference[i] = pipeline.estimate(recorded_sweep(corpus, i), cal);
      }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < kThreads; ++t) pool.emplace_back(worker);
    worker();
    for (auto& t : pool) t.join();
  }

  std::vector<std::vector<RangingRequest>> jobs;
  for (std::size_t first = 0; first < kLinks; first += kJobLinks) {
    std::vector<RangingRequest> job;
    for (std::size_t i = first; i < std::min(kLinks, first + kJobLinks); ++i) {
      job.push_back(corpus.links[i].request);
    }
    jobs.push_back(std::move(job));
  }

  std::uint64_t mismatches = 0;
  auto check = [&](std::size_t job, const BatchResult& out, LoopStats& st) {
    for (std::size_t k = 0; k < out.results.size(); ++k) {
      const core::RangingResult& got = out.results[k];
      if (!same_result(got, reference[job * kJobLinks + k])) ++mismatches;
      ++st.ranges;
      if (got.status.ok()) ++st.ok;
    }
    if (out.results.size() != jobs[job].size()) ++mismatches;
  };

  // Warm-up: starts the engine's session pool and its solver workspaces.
  {
    mathx::Rng rng(opt.seed);
    LoopStats discard;
    check(0, engine->measure_batch(jobs[0], rng, BatchOptions{kThreads}),
          discard);
  }

  // The measured phase's peak memory starts from the warm engine.
  reset_peak_rss();
  auto run_loop = [&](bool traced, double seconds) {
    LoopStats st;
    const auto start = Clock::now();
    double checks_ms = 0.0;  // the previous job's result check
    for (std::uint64_t k = 0; seconds_between(start, Clock::now()) < seconds;
         ++k) {
      const std::size_t j = k % jobs.size();
      mathx::Rng rng(opt.seed + k);
      const double ref_before = reference_burst_ns(kThreads, kRefCalls);
      const auto ready = Clock::now();
      const std::int32_t span =
          traced ? tracer.begin("batch.measure_batch", k) : -1;
      const auto t0 = Clock::now();
      const BatchResult out =
          engine->measure_batch(jobs[j], rng, BatchOptions{kThreads});
      const auto t1 = Clock::now();
      if (traced) tracer.end(span);
      st.gap_ms.push_back(checks_ms + ms_between(ready, t0));
      st.job_ms.push_back(ms_between(t0, t1));
      st.busy_s += seconds_between(t0, t1);
      check(j, out, st);
      checks_ms = ms_between(t1, Clock::now());
      st.ref_ns.push_back(
          0.5 * (ref_before + reference_burst_ns(kThreads, kRefCalls)));
    }
    return st;
  };

  const LoopStats run = run_loop(false, opt.seconds);
  const double peak_rss = peak_rss_mb();
  rep.attempted = run.ranges;
  rep.failed = run.ranges - run.ok;

  if (mismatches > 0) {
    rep.fail(std::to_string(mismatches) +
             " office_batch results differ from sequential estimate()");
  }

  // Accuracy over the distinct links (every pass reproduces reference).
  std::vector<double> err;
  std::uint64_t ok_links = 0, bad = 0;
  for (std::size_t i = 0; i < kLinks; ++i) {
    if (!reference[i].status.ok()) continue;
    ++ok_links;
    const double e = std::abs(reference[i].distance_m - corpus.links[i].true_distance_m);
    err.push_back(e);
    if (e > 1.0) ++bad;
  }

  // Reference speed: each job's wall time scaled by the reference kernel
  // measured on every core right before and after it.
  // Throughput: ok ranges over the summed job time, so slow jobs count.
  const std::vector<double> norm_ms = run.norm_ms();
  const double tail_q = tail_quantile(run.job_ms.size());
  const double ok_ranges = static_cast<double>(run.ok);

  EndToEnd e2e;
  e2e.setup_s = median(setup_s);
  e2e.ranges_per_sec = ok_ranges / (sum(norm_ms) * 1e-3);
  e2e.latency_p50_ms = quantile(norm_ms, 0.5);
  e2e.latency_tail_ms = quantile(norm_ms, tail_q);
  e2e.peak_rss_mb = peak_rss;

  RawFigures raw;
  raw.ranges_per_sec = ok_ranges / (sum(run.job_ms) * 1e-3);
  raw.latency_p50_ms = quantile(run.job_ms, 0.5);
  raw.latency_tail_ms = quantile(run.job_ms, tail_q);
  raw.ref_run_ns = median(run.ref_ns);

  rep.counters["office.failed_links"] = kLinks - ok_links;
  rep.note("office_batch: " + std::to_string(run.ranges) + " ranges in " +
           std::to_string(run.job_ms.size()) + " jobs of " +
           std::to_string(kJobLinks) + " links, " + std::to_string(kThreads) +
           " threads, " + std::to_string(kLinks) + " distinct links; tail = p" +
           std::to_string(100.0 * tail_q));
  rep.note(raw.describe());

  if (!opt.trace) {
    emit_end_to_end(rep, e2e);
    return;
  }

  // ---- traced pass: the loop again (half as long) with spans, then the
  // single-threaded attribution.
  const LoopStats traced = run_loop(true, 0.5 * opt.seconds);
  Layers layers;
  layers.trace_overhead_pct =
      100.0 * (median(traced.norm_ms()) - e2e.latency_p50_ms) / e2e.latency_p50_ms;
  layers.synth_ms_p50 = median(corpus.synth_ms);

  std::vector<Ticket> tickets;
  const mathx::Rng base(opt.seed);
  for (std::size_t i = 0; i < kLinks; ++i) {
    tickets.push_back({corpus.links[i].resolved, base.split(i), i});
  }
  const Attribution attr =
      attribute(*corpus.trace, pipeline, cal, RetryPolicy{}, tickets, tracer);
  for (std::size_t i = 0; i < attr.service_results.size(); ++i) {
    if (!same_result(attr.service_results[i], reference[i])) ++mismatches;
  }
  if (attr.decomposition_mismatches > 0 || mismatches > 0) {
    rep.fail("traced pass disagrees with the untraced results");
  }

  layers.panel_ms_per_rhs = panel_ms_per_rhs(
      pipeline, cal, corpus, core::ranging_solve_group(kJobLinks, kThreads),
      tracer);

  // Parallel efficiency: single-thread service time of the ranged links
  // against the threads x wall the batched runtime spent on them.
  const double service_per_range_ms = mean(attr.service_ms);
  layers.parallel_efficiency = service_per_range_ms * static_cast<double>(run.ranges) /
                               (kThreads * run.busy_s * 1e3);
  std::vector<double> overhead;
  for (double job : run.job_ms) {
    overhead.push_back(job - service_per_range_ms * kJobLinks / kThreads);
  }
  layers.runtime_overhead_ms_p50 = median(overhead);
  layers.gen_late_p99_ms = quantile(run.gap_ms, 0.99);
  layers.attempts_per_request = 1.0;
  for (const auto& r : reference) count_status(layers, r.status.code());
  layers.failed_fraction = static_cast<double>(rep.failed) /
                           static_cast<double>(rep.attempted);
  layers.dist_err_p50_m = quantile(err, 0.5);
  layers.dist_err_p90_m = quantile(err, 0.9);
  layers.raw = raw;
  layers.bad_range_fraction =
      static_cast<double>(bad) / std::max<double>(1.0, static_cast<double>(ok_links));

  std::vector<netd::RequestFrame> req_frames;
  std::vector<netd::ResponseFrame> resp_frames;
  for (std::size_t i = 0; i < kLinks; ++i) {
    req_frames.push_back({i, corpus.links[i].request});
    resp_frames.push_back(netd::ResponseFrame::of(i, reference[i]));
  }
  layers.wire = measure_wire(req_frames, resp_frames, tracer);
  layers.ref_kernel_ns = opt.ref_kernel_ns;
  emit_layers(rep, layers, attr, tracer);
}

}  // namespace perfbench
