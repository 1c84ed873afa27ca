// Ticketed ranging sessions: the one ingestion runtime under measure_batch,
// submit_batch, open_session, and the chronosd shards.
//
// `RangingSession`: requests are admitted one at a time (ticketed 0, 1, 2,
// ... in admission order), each ranged as one job on a persistent worker
// pool — or, for a session opened without a pool, on the admitting thread
// — and collected in ticket order. Admission is bounded: at most
// `queue_depth` tickets may be in flight (admitted but unfinished) at once
// — `try_submit` reports chronos::kQueueFull immediately (never blocks,
// never drops silently), `submit` blocks until a worker frees a slot. This
// is the backpressure story for sustained async submission: a producer
// that outruns the workers is told so, per request, instead of growing an
// unbounded queue. A batch is the same session with no bound: every
// request admitted up front, then drain().
//
// Determinism contract: a session adopts ONE base stream (the caller's rng
// forked once on kBatchStreamTag); ticket i draws from base.split(i), or
// from base.split(stream_index) for sharded admission. A result is
// therefore a pure function of (source, pipeline, calibration, request,
// base stream, stream index) — never of queue depth, scheduling, pool
// size, or collection timing (tests/test_core_batch.cpp is the
// enforcement).
//
// Error model: request-shaped failures never throw. Id-based submissions
// that fail resolution are rejected synchronously (no ticket consumed);
// backend failures during ranging land in the per-ticket
// RangingResult::status. A worker exception (programmer error) is
// captured as kInternal on its own ticket rather than tearing down the
// pool or touching any other ticket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/api.hpp"
#include "core/calibration.hpp"
#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "mathx/rng.hpp"
#include "mathx/status.hpp"
#include "mathx/stream_tags.hpp"

namespace chronos::core {

class WorkerPool;

/// fork() tag for a session's base stream ("batch" in ASCII). One shared
/// constant so every ingestion path — batch, async batch, streaming
/// session, daemon — advances the caller's rng identically. Defined in the
/// mathx/stream_tags.hpp registry; this is the layer-local alias.
inline constexpr std::uint64_t kBatchStreamTag = chronos::kBatchStreamTag;

class RangingSession {
 public:
  /// Invalid session; obtain real ones from open_ranging_session or
  /// ChronosEngine::open_session / submit_batch.
  RangingSession() = default;
  RangingSession(RangingSession&&) noexcept = default;
  RangingSession& operator=(RangingSession&&) noexcept = default;

  /// Outstanding jobs keep running after the session dies (they own their
  /// payload); uncollected results are dropped.
  ~RangingSession() = default;

  RangingSession(const RangingSession&) = delete;
  RangingSession& operator=(const RangingSession&) = delete;

  bool valid() const { return state_ != nullptr; }
  std::size_t queue_depth() const;
  /// Workers available to this session (1 without a pool; diagnostics).
  int threads() const;

  /// Admits `request` if the queue has room NOW: the ticket, or kQueueFull
  /// (nothing enqueued — resubmit later), or the resolution failure.
  /// Never blocks. Capacity is checked BEFORE resolution (rejection is
  /// the hot path of a saturating producer), so a full queue reports
  /// kQueueFull even for requests that would not resolve.
  chronos::Result<std::uint64_t> try_submit(
      const chronos::RangingRequest& request);

  /// Like try_submit, but blocks until a slot frees. Resolution failures
  /// return without blocking. Must not be called from a pool worker (a
  /// full queue would then deadlock against itself).
  chronos::Result<std::uint64_t> submit(const chronos::RangingRequest& request);

  /// Sharded admission (the netd daemon's seam): non-blocking; the
  /// admitted ticket draws from base.split(stream_index) instead of its own
  /// local ticket index. Several shard sessions opened over ONE shared base
  /// stream can then serve one GLOBAL ticket space: whichever shard a
  /// request lands on, its result is the same pure function of (source,
  /// pipeline, calibration, request, base.split(stream_index)) the
  /// in-process batch computes for ticket stream_index — the property the
  /// daemon's wire-determinism test pins. Returns the LOCAL ticket (what
  /// next()/drain() order follows), or nullopt when the queue is full.
  std::optional<std::uint64_t> try_submit_stream(
      const ResolvedRequest& request, std::uint64_t stream_index);

  /// Claims the next ticket for a request that failed before admission
  /// (e.g. resolution failure inside a batch): its result is immediately
  /// complete, carrying `status`. Keeps batch results index-aligned with
  /// their requests without disturbing the split streams of neighbours.
  std::uint64_t push_failed(chronos::Status status);

  std::size_t submitted() const;
  /// Admitted but unfinished — what queue_depth bounds.
  std::size_t in_flight() const;
  std::size_t collected() const;
  bool all_done() const;
  void wait_all() const;

  /// True when next() would return without blocking.
  bool next_ready() const;
  /// Blocks until the next in-order ticket finishes, then returns its
  /// result. Precondition: collected() < submitted().
  RangingResult next();
  /// Collects every remaining result in ticket order (blocks until done).
  std::vector<RangingResult> drain();

 private:
  friend RangingSession open_ranging_session(
      std::shared_ptr<WorkerPool> pool,
      std::shared_ptr<const SweepSource> source,
      std::shared_ptr<const RangingPipeline> pipeline,
      std::shared_ptr<const CalibrationTable> calibration,
      const mathx::Rng& base_stream, std::size_t queue_depth,
      const chronos::RetryPolicy& retry);

  /// The one ticket claim: the next local ticket, waiting for room when
  /// `block`, else nullopt when the queue is full. Allocation-free.
  std::optional<std::uint64_t> claim(bool block);
  /// Ranges `request` as `ticket` on stream base.split(stream): one pool
  /// job, or inline without a pool.
  void dispatch(std::uint64_t ticket, std::uint64_t stream,
                const ResolvedRequest& request);

  struct State;
  std::shared_ptr<State> state_;
};

/// Opens a session that ADOPTS `base_stream`, an already-forked base —
/// callers fork their rng exactly once, `rng.fork(kBatchStreamTag)`, the
/// same single advancement on every ingestion path. The daemon hands copies
/// of one base to every shard session, so per-ticket streams are shared
/// across shards and addressed globally via try_submit_stream.
///
/// The session shares ownership of everything a job touches, so it stays
/// collectable after the issuing engine dies. `pool == nullptr` runs each
/// job on the admitting thread before admission returns (the inline path of
/// a one-thread batch, and what keeps nested batches off a busy pool).
/// `queue_depth >= 1`. `retry` bounds per-ticket re-ranging of retryable
/// failures (core/retry.hpp); the default {1} keeps the pre-retry
/// behaviour.
RangingSession open_ranging_session(
    std::shared_ptr<WorkerPool> pool, std::shared_ptr<const SweepSource> source,
    std::shared_ptr<const RangingPipeline> pipeline,
    std::shared_ptr<const CalibrationTable> calibration,
    const mathx::Rng& base_stream, std::size_t queue_depth,
    const chronos::RetryPolicy& retry = {});

/// Panel width perfbench times `NdftSolver::solve_fista_batch` at: 8 for
/// `threads <= 1`, else capped so ~4 panels land on every worker. Kept for
/// perfbench's `ndft.panel_ms_per_rhs` cell; removed by the next benchmark
/// PR.
std::size_t ranging_solve_group(std::size_t n_requests, std::size_t threads);

}  // namespace chronos::core
