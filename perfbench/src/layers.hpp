// Per-layer attribution: the traced pass that times calls into each layer's
// public functions on the same sweeps a workload ranged, the wire
// micro-measurements, and the one place that turns a workload's figures
// into the exact metric lists BENCHMARK.json declares.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"
#include "core/api.hpp"
#include "core/calibration.hpp"
#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "mathx/rng.hpp"
#include "netd/wire.hpp"

namespace perfbench {

/// One request to attribute: what the runtime ranged, on which ticket
/// stream, and with which retry budget.
struct Ticket {
  chronos::core::ResolvedRequest resolved;
  chronos::mathx::Rng stream{0};
  std::uint64_t id = 0;
};

/// Per-ticket single-thread timings of one traced pass (service figures are
/// index-aligned with the tickets).
struct Attribution {
  std::vector<double> service_ms;  ///< core/retry range_with_retries
  std::vector<chronos::core::RangingResult> service_results;
  std::vector<double> screen_all_ms;  ///< every first-attempt screen
  // First-attempt sweep decomposition, only for sweeps that pass the
  // pre-solve screen.
  std::vector<double> estimate_ms;
  std::vector<double> screen_ms;
  std::vector<double> combine_ms;
  std::vector<double> solve_ms;
  std::vector<double> tail_ms;  ///< estimate - screen - combine - solve
  std::vector<int> iterations;
  std::vector<bool> converged;
  std::uint64_t decomposition_mismatches = 0;  ///< solve vs estimate iters
};

/// Times every ticket (in order, single-threaded): range_with_retries as the service span, then the first-attempt
/// sweep through sweep_for / estimate / screen_sweep / combine_sweep /
/// apply_weights+solve_fista as child spans of one request span.
Attribution attribute(const chronos::core::SweepSource& source,
                      const chronos::core::RangingPipeline& pipeline,
                      const chronos::core::CalibrationTable& calibration,
                      const chronos::RetryPolicy& retry,
                      const std::vector<Ticket>& tickets, Tracer& tracer);

/// Wall time per right-hand side of NdftSolver::solve_fista_batch on
/// panels of `group` of the corpus's recorded sweeps (the multi-RHS path of
/// the batched runtime).
double panel_ms_per_rhs(const chronos::core::RangingPipeline& pipeline,
                        const chronos::core::CalibrationTable& calibration,
                        const Corpus& corpus, std::size_t group,
                        Tracer& tracer);

struct WireCosts {
  double encode_request_ns = 0.0;
  double decode_response_ns = 0.0;
  double parser_ns_per_frame = 0.0;
  double bytes_per_exchange = 0.0;
};

/// netd/wire micro-measurements on the workload's own request and
/// response frames.
WireCosts measure_wire(const std::vector<chronos::netd::RequestFrame>& requests,
                       const std::vector<chronos::netd::ResponseFrame>& responses,
                       Tracer& tracer);

/// The workload's end-to-end figures. Durations and closed-loop rates are
/// at reference speed (see host.hpp); open-loop rates are as measured.
struct EndToEnd {
  double setup_s = 0.0;
  double ranges_per_sec = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double peak_rss_mb = 0.0;
};

/// The same figures as measured on the wall clock, before normalisation.
struct RawFigures {
  double ranges_per_sec = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double ref_run_ns = 0.0;  ///< reference kernel during the measured phase

  std::string describe() const;
};

/// Per-layer figures; fields a workload does not exercise stay 0 (counts)
/// or hold the workload's analogue documented in perfbench/README.md.
struct Layers {
  double synth_ms_p50 = 0.0;
  double panel_ms_per_rhs = 0.0;
  double parallel_efficiency = 0.0;
  double runtime_overhead_ms_p50 = 0.0;
  double gen_late_p99_ms = 0.0;
  double attempts_per_request = 0.0;
  double retried_fraction = 0.0;
  double failed_fraction = 0.0;
  double slo_miss_fraction = 0.0;
  double dist_err_p50_m = 0.0;
  double dist_err_p90_m = 0.0;
  double bad_range_fraction = 0.0;
  double trace_overhead_pct = 0.0;
  double ref_kernel_ns = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t failed_resolution = 0;
  std::uint64_t queue_full_rejections = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t status_ok = 0;
  std::uint64_t status_integrity = 0;
  std::uint64_t status_retry_exhausted = 0;
  std::uint64_t status_unknown_node = 0;
  std::uint64_t status_other = 0;
  WireCosts wire;
  RawFigures raw;
};

/// Counts final statuses into the status_* fields.
void count_status(Layers& layers, chronos::StatusCode code);

void emit_end_to_end(Report& report, const EndToEnd& e2e);
void emit_layers(Report& report, const Layers& layers,
                 const Attribution& attribution, const Tracer& tracer);

/// Bitwise equality of the fields a ranging client acts on.
bool same_result(const chronos::core::RangingResult& a,
                 const chronos::core::RangingResult& b);

/// Returns freed heap to the system and resets this process's peak
/// resident set mark to its current size (throws if the kernel refuses).
void reset_peak_rss();

/// Peak resident set size of this process since the last reset_peak_rss()
/// [MB].
double peak_rss_mb();

}  // namespace perfbench
