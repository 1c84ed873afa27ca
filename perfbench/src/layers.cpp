#include "layers.hpp"

#include <malloc.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/combining.hpp"
#include "core/integrity.hpp"
#include "core/retry.hpp"

namespace perfbench {

namespace {

using chronos::core::RangingResult;

volatile std::uint64_t g_wire_sink = 0;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The weighted measurement vector RangingPipeline::estimate solves for,
/// from the combined sweep.
std::vector<std::complex<double>> weighted_measurement(
    const chronos::core::RangingPipeline& pipeline,
    const std::vector<chronos::core::CombinedBand>& combined) {
  std::vector<std::complex<double>> raw(combined.size());
  for (std::size_t i = 0; i < combined.size(); ++i) raw[i] = combined[i].value;
  return pipeline.solver().apply_weights(raw);
}

template <typename F>
double median_ns_per_item(std::size_t items, int reps, F&& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    samples.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                      static_cast<double>(items));
  }
  return median(samples);
}

}  // namespace

bool same_result(const RangingResult& a, const RangingResult& b) {
  return a.status.code() == b.status.code() && same_bits(a.tof_s, b.tof_s) &&
         same_bits(a.distance_m, b.distance_m) && same_bits(a.toa_s, b.toa_s) &&
         same_bits(a.detection_delay_s, b.detection_delay_s) &&
         a.peak_found == b.peak_found &&
         a.solver_iterations == b.solver_iterations &&
         a.attempts == b.attempts &&
         a.profile.peaks.size() == b.profile.peaks.size() &&
         a.candidates.size() == b.candidates.size();
}

Attribution attribute(const chronos::core::SweepSource& source,
                      const chronos::core::RangingPipeline& pipeline,
                      const chronos::core::CalibrationTable& calibration,
                      const chronos::RetryPolicy& retry,
                      const std::vector<Ticket>& tickets, Tracer& tracer) {
  namespace core = chronos::core;
  Attribution out;
  for (const Ticket& t : tickets) {
    const std::int32_t req = tracer.begin("request", t.id);

    std::int32_t s = tracer.begin("retry.range_with_retries", t.id, req);
    RangingResult served = core::range_with_retries(
        source, pipeline, calibration, t.resolved, t.stream, retry);
    tracer.end(s);
    out.service_ms.push_back(tracer.duration_ms(s));
    out.service_results.push_back(std::move(served));

    // The first attempt's sweep, exactly as the runtime drew it.
    chronos::mathx::Rng first = t.stream;
    s = tracer.begin("sweep.acquire", t.id, req);
    chronos::Result<chronos::phy::SweepMeasurement> sweep =
        source.sweep_for(t.resolved, first);
    tracer.end(s);
    if (!sweep.ok()) {
      tracer.end(req);
      continue;
    }

    s = tracer.begin("integrity.screen", t.id, req);
    const chronos::Status gate = core::screen_sweep(
        sweep.value(), source.bands(), pipeline.config().integrity);
    tracer.end(s);
    const double screen = tracer.duration_ms(s);
    out.screen_all_ms.push_back(screen);
    if (!gate.ok()) {
      tracer.end(req);
      continue;
    }

    s = tracer.begin("ranging.estimate", t.id, req);
    const RangingResult estimated =
        pipeline.estimate(sweep.value(), calibration);
    tracer.end(s);
    const double estimate = tracer.duration_ms(s);

    s = tracer.begin("combining.combine", t.id, req);
    const auto combined = core::combine_sweep(
        sweep.value(), pipeline.config().combining, calibration);
    tracer.end(s);
    const double combine = tracer.duration_ms(s);

    s = tracer.begin("ndft.solve", t.id, req);
    const std::vector<std::complex<double>> h =
        weighted_measurement(pipeline, combined);
    const core::SparseSolveResult solved = pipeline.solver().solve_fista(
        h, pipeline.config().solver_options);
    tracer.end(s);
    const double solve = tracer.duration_ms(s);
    tracer.end(req);

    if (solved.iterations != estimated.solver_iterations) {
      ++out.decomposition_mismatches;
    }
    out.estimate_ms.push_back(estimate);
    out.screen_ms.push_back(screen);
    out.combine_ms.push_back(combine);
    out.solve_ms.push_back(solve);
    out.tail_ms.push_back(estimate - screen - combine - solve);
    out.iterations.push_back(solved.iterations);
    out.converged.push_back(solved.converged);
  }
  return out;
}

double panel_ms_per_rhs(const chronos::core::RangingPipeline& pipeline,
                        const chronos::core::CalibrationTable& calibration,
                        const Corpus& corpus, std::size_t group,
                        Tracer& tracer) {
  std::vector<std::vector<std::complex<double>>> hs;
  hs.reserve(corpus.links.size());
  for (std::size_t i = 0; i < corpus.links.size(); ++i) {
    hs.push_back(weighted_measurement(
        pipeline, chronos::core::combine_sweep(recorded_sweep(corpus, i),
                                               pipeline.config().combining,
                                               calibration)));
  }
  double total_ms = 0.0;
  std::size_t solved = 0;
  for (std::size_t first = 0; first + group <= hs.size(); first += group) {
    std::vector<std::span<const std::complex<double>>> panel;
    for (std::size_t k = first; k < first + group; ++k) panel.emplace_back(hs[k]);
    const std::int32_t s = tracer.begin("ndft.solve_fista_batch", first);
    const auto results = pipeline.solver().solve_fista_batch(
        panel, pipeline.config().solver_options);
    tracer.end(s);
    total_ms += tracer.duration_ms(s);
    solved += results.size();
  }
  return solved == 0 ? 0.0 : total_ms / static_cast<double>(solved);
}

WireCosts measure_wire(const std::vector<chronos::netd::RequestFrame>& requests,
                       const std::vector<chronos::netd::ResponseFrame>& responses,
                       Tracer& tracer) {
  namespace netd = chronos::netd;
  WireCosts out;
  if (requests.empty() || responses.empty()) return out;
  constexpr int kReps = 9;
  std::vector<std::uint8_t> buf;
  buf.reserve(256);
  std::uint64_t sink = 0;

  std::int32_t s = tracer.begin("wire.encode_request", 0);
  out.encode_request_ns = median_ns_per_item(requests.size(), kReps, [&]() {
    for (const auto& req : requests) {
      buf.clear();
      netd::encode_request(buf, req);
      sink += buf.size();
    }
  });
  tracer.end(s);
  const double request_bytes = static_cast<double>(buf.size());

  // Every response frame back to back: the byte stream a client receives.
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> offsets;
  for (const auto& resp : responses) {
    offsets.push_back(stream.size());
    netd::encode_response(stream, resp);
  }
  offsets.push_back(stream.size());
  out.bytes_per_exchange =
      request_bytes + static_cast<double>(stream.size()) /
                          static_cast<double>(responses.size());

  s = tracer.begin("wire.decode_response", 0);
  out.decode_response_ns = median_ns_per_item(responses.size(), kReps, [&]() {
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      const netd::DecodeOutcome d = netd::decode_frame(
          std::span<const std::uint8_t>(stream).subspan(
              offsets[i], offsets[i + 1] - offsets[i]));
      sink += d.consumed;
    }
  });
  tracer.end(s);

  // FrameParser over the stream in transport-sized chunks.
  s = tracer.begin("wire.frame_parser", 0);
  out.parser_ns_per_frame = median_ns_per_item(responses.size(), kReps, [&]() {
    netd::FrameParser parser;
    netd::Frame frame;
    constexpr std::size_t kChunk = 4096;
    for (std::size_t at = 0; at < stream.size(); at += kChunk) {
      const std::size_t n = std::min(kChunk, stream.size() - at);
      parser.feed(std::span<const std::uint8_t>(stream).subspan(at, n));
      while (parser.poll(frame) == netd::FrameParser::Poll::kFrame) {
        sink += frame.response.request_id;
      }
    }
  });
  tracer.end(s);
  g_wire_sink = sink;  // keeps the measured loops observable
  return out;
}

void count_status(Layers& layers, chronos::StatusCode code) {
  using chronos::StatusCode;
  switch (code) {
    case StatusCode::kOk: ++layers.status_ok; break;
    case StatusCode::kIntegrityViolation: ++layers.status_integrity; break;
    case StatusCode::kRetryExhausted: ++layers.status_retry_exhausted; break;
    case StatusCode::kUnknownNode: ++layers.status_unknown_node; break;
    default: ++layers.status_other; break;
  }
}

std::string RawFigures::describe() const {
  return "wall clock: ranges_per_sec " + std::to_string(ranges_per_sec) +
         ", latency p50 " + std::to_string(latency_p50_ms) + " ms, tail " +
         std::to_string(latency_tail_ms) + " ms; reference kernel " +
         std::to_string(ref_run_ns) + " ns per product";
}

void emit_end_to_end(Report& report, const EndToEnd& e) {
  report.e2e("setup_s", e.setup_s, "s");
  report.e2e("ranges_per_sec", e.ranges_per_sec, "1/s");
  report.e2e("latency_p50_ms", e.latency_p50_ms, "ms");
  report.e2e("latency_tail_ms", e.latency_tail_ms, "ms");
  report.e2e("peak_rss_mb", e.peak_rss_mb, "MB");
}

void emit_layers(Report& report, const Layers& l, const Attribution& a,
                 const Tracer& tracer) {
  auto count = [&](const char* name, std::uint64_t v) {
    report.layer(name, static_cast<double>(v), "count");
    report.counters[name] = v;
  };
  std::vector<double> iters(a.iterations.begin(), a.iterations.end());
  std::uint64_t iter_total = 0;
  for (int it : a.iterations) iter_total += static_cast<std::uint64_t>(it);
  double converged = 0.0;
  for (bool c : a.converged) converged += c ? 1.0 : 0.0;
  const double n_dec = std::max<double>(1.0, static_cast<double>(a.converged.size()));
  std::vector<double> screen_us;
  for (double ms : a.screen_all_ms) screen_us.push_back(ms * 1e3);

  report.layer("sim.synth_ms_p50", l.synth_ms_p50, "ms");
  report.layer("ndft.fista_ms_p50", quantile(a.solve_ms, 0.5), "ms");
  report.layer("ndft.fista_ms_p90", quantile(a.solve_ms, 0.9), "ms");
  report.layer("ndft.fista_ms_p99", quantile(a.solve_ms, 0.99), "ms");
  report.layer("ndft.iterations_p50", quantile(iters, 0.5), "count");
  report.layer("ndft.iterations_p90", quantile(iters, 0.9), "count");
  report.layer("ndft.iterations_max", quantile(iters, 1.0), "count");
  count("ndft.iterations_total", iter_total);
  report.layer("ndft.converged_fraction", converged / n_dec, "fraction");
  report.layer("ndft.us_per_iteration",
               iter_total == 0 ? 0.0
                               : sum(a.solve_ms) * 1e3 /
                                     static_cast<double>(iter_total),
               "us");
  report.layer("ndft.panel_ms_per_rhs", l.panel_ms_per_rhs, "ms");
  report.layer("combining.combine_ms_p50", quantile(a.combine_ms, 0.5), "ms");
  report.layer("integrity.screen_us_p50", quantile(screen_us, 0.5), "us");
  report.layer("ranging.estimate_ms_p50", quantile(a.estimate_ms, 0.5), "ms");
  report.layer("ranging.estimate_ms_p90", quantile(a.estimate_ms, 0.9), "ms");
  report.layer("ranging.estimate_ms_p99", quantile(a.estimate_ms, 0.99), "ms");
  report.layer("ranging.tail_ms_p50", quantile(a.tail_ms, 0.5), "ms");
  report.layer("retry.attempts_per_request", l.attempts_per_request, "ratio");
  report.layer("retry.retried_fraction", l.retried_fraction, "fraction");
  report.layer("batch.parallel_efficiency", l.parallel_efficiency, "fraction");
  report.layer("daemon.overhead_ms_p50", l.runtime_overhead_ms_p50, "ms");
  count("daemon.admitted", l.admitted);
  count("daemon.failed_resolution", l.failed_resolution);
  count("daemon.queue_full_rejections", l.queue_full_rejections);
  count("daemon.responses_sent", l.responses_sent);
  report.layer("wire.encode_request_ns", l.wire.encode_request_ns, "ns");
  report.layer("wire.decode_response_ns", l.wire.decode_response_ns, "ns");
  report.layer("wire.parser_ns_per_frame", l.wire.parser_ns_per_frame, "ns");
  report.layer("wire.bytes_per_exchange", l.wire.bytes_per_exchange, "bytes");
  report.layer("gen.late_p99_ms", l.gen_late_p99_ms, "ms");
  count("status.ok", l.status_ok);
  count("status.integrity_violation", l.status_integrity);
  count("status.retry_exhausted", l.status_retry_exhausted);
  count("status.unknown_node", l.status_unknown_node);
  count("status.other", l.status_other);
  report.layer("quality.failed_fraction", l.failed_fraction, "fraction");
  report.layer("quality.slo_miss_fraction", l.slo_miss_fraction, "fraction");
  report.layer("quality.dist_err_p50_m", l.dist_err_p50_m, "m");
  report.layer("quality.dist_err_p90_m", l.dist_err_p90_m, "m");
  report.layer("quality.bad_range_fraction", l.bad_range_fraction, "fraction");

  // Self time per layer, mean per attributed request. The service span
  // (range_with_retries) covers sweep acquisition, every attempt's
  // estimate, and the retry ladder; the first attempt's estimate splits
  // into screen + combine + solve + the peak-selection tail.
  // Sweep acquisition and extra attempts: service time not spent in the
  // first attempt's estimate (0 for requests whose first sweep was rejected
  // before the solve).
  const double n_served = std::max<double>(1.0, static_cast<double>(a.service_ms.size()));
  const double estimate = mean(a.estimate_ms);
  report.layer("self.service_ms", mean(a.service_ms), "ms");
  report.layer("self.sweep_retry_ms",
               (sum(a.service_ms) - sum(a.estimate_ms)) / n_served, "ms");
  report.layer("self.integrity_ms", mean(a.screen_ms), "ms");
  report.layer("self.combining_ms", mean(a.combine_ms), "ms");
  report.layer("self.ndft_ms", mean(a.solve_ms), "ms");
  report.layer("self.ranging_tail_ms", mean(a.tail_ms), "ms");
  report.layer("self.ndft_share", estimate > 0.0 ? mean(a.solve_ms) / estimate : 0.0,
               "fraction");
  report.layer("trace.overhead_pct", l.trace_overhead_pct, "%");
  report.layer("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  report.layer("raw.ranges_per_sec", l.raw.ranges_per_sec, "1/s");
  report.layer("raw.latency_p50_ms", l.raw.latency_p50_ms, "ms");
  report.layer("raw.latency_tail_ms", l.raw.latency_tail_ms, "ms");
  report.layer("host.ref_run_ns", l.raw.ref_run_ns, "ns");
  report.layer("host.ref_kernel_ns", l.ref_kernel_ns, "ns");
}

void reset_peak_rss() {
  malloc_trim(0);  // hand freed set-up memory back before the mark resets
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS mark");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      if (status >> kib) return kib / 1024.0;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("cannot read VmHWM from /proc/self/status");
}

}  // namespace perfbench
