// Bounded, deterministic retry of per-request ranging failures.
//
// The batched runtime's contract says ticket i is a pure function of
// (source, pipeline, calibration, request, base.split(i)). Retries must not
// weaken that: attempt a >= 1 of a ticket draws its sweep from
// ticket_stream.split(kRetryStreamTag + a) — a position-independent child
// of the SAME per-ticket stream, so which attempts happen and what they
// measure depend only on (seed, ticket, attempt), never on worker
// scheduling. Attempt 0 consumes a COPY of the ticket stream exactly the
// way the retry-free runtime consumed the stream itself, so a
// RetryPolicy{1} run is bit-identical to the pre-retry pipeline.
//
// range_with_retries is the body of every session ticket's job
// (core/session.cpp).
#pragma once

#include <cstdint>

#include "core/api.hpp"
#include "core/calibration.hpp"
#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "mathx/rng.hpp"
#include "mathx/stream_tags.hpp"

namespace chronos::core {

/// split() tag of the retry attempt streams ("retry" in ASCII); attempt a
/// uses kRetryStreamTag + a. The registry (mathx/stream_tags.hpp) reserves
/// a range of 4096 offsets for the ladder, keeping the streams clear of
/// the fault tag and of plain ticket ids; this is the layer-local alias.
inline constexpr std::uint64_t kRetryStreamTag = chronos::kRetryStreamTag;

/// Ranges `request` under `policy`: attempt 0 consumes a copy of
/// `ticket_stream` exactly as the retry-free runtime would consume the
/// stream itself; while the status is retryable and attempts remain, the
/// request is re-ranged on the ticket's retry streams. Returns the first
/// success, the first non-retryable failure, or kRetryExhausted wrapping
/// the last retryable diagnostic. The result's `attempts` counts every
/// attempt consumed (first included). Failures land in the status (never
/// thrown).
RangingResult range_with_retries(const SweepSource& source,
                                 const RangingPipeline& pipeline,
                                 const CalibrationTable& calibration,
                                 const ResolvedRequest& request,
                                 const mathx::Rng& ticket_stream,
                                 const chronos::RetryPolicy& policy);

}  // namespace chronos::core
