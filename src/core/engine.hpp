// ChronosEngine: the engine-level API behind the chronos:: facade.
//
// Wires a measurement substrate (any core::SweepSource backend — the
// channel simulator standing in for a pair of Intel 5300 cards, a recorded
// trace, ...) to the estimation pipeline, and exposes the operations the
// paper's applications use:
//   * calibrate()        one-time known-distance hardware calibration (§7)
//   * measure()          sub-ns ToF + distance for one id-based request
//   * measure_batch()    many antenna pairs ranged concurrently: a
//                        session (core/session.hpp) fed every request,
//                        then drained
//   * submit_batch()     same, asynchronously: returns the fed session so
//                        the caller can pipeline ingestion and drain later
//   * open_session()     streaming submission with a bounded queue — the
//                        v2 flow-control surface
//   * locate()           device-to-device relative localization (§8)
//   * locate_batch()     many localizations ranged concurrently
//
// API v2: public requests carry chronos::NodeId identities which the
// backend's registry resolves; request-shaped failures come back as
// chronos::Status / Result values. Ids are the only way in: register
// devices with the backend (e.g. SimSweepSource::add_node) before ranging.
//
// Threading model: every const method is safe to call concurrently from
// multiple threads, provided each caller supplies its own mathx::Rng. The
// batched entry points manage that internally via Rng::split, so their
// results are bit-identical for every thread count.
//
// Persistent session pool: the first batched call needing parallelism
// lazily starts an engine-owned WorkerPool that lives until the engine is
// destroyed. Workers persist across batches, so their warmed thread-local
// solver workspaces (core/ndft.cpp) are reused instead of being torn down
// and re-allocated per batch; the pool grows (never shrinks) when a later
// call asks for more threads. Pool management is internal and guarded — it
// never affects results, only wall clock.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/api.hpp"
#include "core/calibration.hpp"
#include "core/localization.hpp"
#include "core/ranging.hpp"
#include "core/session.hpp"
#include "core/sweep_source.hpp"
#include "geom/vec2.hpp"
#include "mathx/annotations.hpp"
#include "mathx/rng.hpp"

namespace chronos::core {

struct EngineConfig {
  /// Link model of calibrate()'s anechoic fixture; its `bands` are replaced
  /// by source->bands(). Pass the same config to a SimSweepSource backend
  /// so the fixture and the field share one impairment model.
  sim::LinkSimConfig link;
  RangingConfig ranging;
  /// Sweeps averaged during calibration.
  int calibration_sweeps = 4;
  /// Known separation used for the calibration fixture [m].
  double calibration_distance_m = 3.0;
};

/// The public option/result types live on the facade (core/api.hpp);
/// these aliases keep engine-level code terse.
using BatchOptions = chronos::BatchOptions;
using BatchResult = chronos::BatchResult;
using LocateOutcome = chronos::LocateOutcome;
using SessionOptions = chronos::SessionOptions;

class ChronosEngine {
 public:
  /// Ranges whatever sweeps `source` yields (a SimSweepSource, a
  /// TraceSweepSource replaying recorded captures, ...). The pipeline's
  /// band plan comes from source->bands(); config.link shapes only the
  /// calibrate() fixture. Pair with set_calibration() when the backend has
  /// a recorded calibration.
  explicit ChronosEngine(std::shared_ptr<const SweepSource> source,
                         EngineConfig config = {});

  // ------------------------------------------------------------- directory

  /// The backend's node directory (the source implements it).
  const chronos::NodeRegistry& registry() const { return *source_; }

  /// The measurement backend this engine ranges against.
  const SweepSource& source() const { return *source_; }

  // ----------------------------------------------------------- calibration

  /// Fixture calibration of a registered node pair: resolves both ids,
  /// then runs the a-priori bench calibration (simulated anechoic fixture
  /// at the configured known distance). kUnknownNode for unregistered ids;
  /// kUnavailable on backends without device descriptions (install a
  /// recorded table via set_calibration instead).
  chronos::Status calibrate(chronos::NodeId tx,
                            chronos::NodeId rx,
                            mathx::Rng& rng);

  /// Installs a pre-computed calibration table (e.g. one recorded alongside
  /// a trace, or built offline with calibrate_from_sweeps).
  void set_calibration(CalibrationTable calibration);

  // --------------------------------------------------------------- ranging

  /// Time-of-flight / distance for one id-based request: resolution
  /// failures (unknown node, antenna out of range, unrecorded link) come
  /// back as the Status — never as an exception.
  chronos::Result<RangingResult> measure(
      const chronos::RangingRequest& request, mathx::Rng& rng) const;

  /// The raw calibrated sweep `request` would measure — for recording
  /// campaigns (phy::save_sweep) and diagnostics. Draws from `rng` exactly
  /// like measure() does before estimation.
  chronos::Result<phy::SweepMeasurement> capture_sweep(
      const chronos::RangingRequest& request, mathx::Rng& rng) const;

  /// Runs the estimation pipeline on an externally produced sweep using
  /// this engine's calibration (kMalformedSweep / kBandMismatch when the
  /// sweep does not fit the pipeline's band plan).
  chronos::Result<RangingResult> estimate(
      const phy::SweepMeasurement& sweep) const;

  // --------------------------------------------------------------- batches

  /// Ranges every id-based request on the persistent session pool.
  /// Bit-reproducible: the results depend only on (engine, requests, rng
  /// state) — never on thread count or scheduling. Advances `rng` by
  /// exactly one fork(). Per-request failures (including resolution
  /// failures) land in results[i].status, index-aligned with `requests`.
  BatchResult measure_batch(std::span<const chronos::RangingRequest> requests,
                            mathx::Rng& rng,
                            const BatchOptions& options = {}) const;

  /// Async variant: admits the whole batch to an unbounded session and
  /// returns it, so callers can submit the next batch (or do unrelated
  /// work) while this one ranges; drain() collects results[i] for
  /// requests[i], and all_done()/wait_all() observe completion. Identical
  /// determinism contract and rng advancement as measure_batch — submitting
  /// then draining is bit-identical to the synchronous call, for any thread
  /// count and any interleaving of outstanding sessions. The session
  /// co-owns the pool, backend, pipeline, and calibration, so it stays
  /// collectable after the engine dies; dropping it undrained is safe. A
  /// batch that resolves to one thread ranges inline before this returns.
  RangingSession submit_batch(
      std::span<const chronos::RangingRequest> requests, mathx::Rng& rng,
      const BatchOptions& options = {}) const;

  /// Opens a bounded-queue streaming session on the persistent pool (the
  /// v2 flow-control surface). Forks `rng` once: a session fed requests
  /// one at a time is bit-identical to measure_batch over the same
  /// requests on the same rng state.
  RangingSession open_session(mathx::Rng& rng,
                              const SessionOptions& options = {}) const;

  // ---------------------------------------------------------- localization

  /// Full device-to-device localization: ranges every TX antenna against
  /// every RX antenna (tx-major, via the batched runtime) and trilaterates
  /// in the RX's frame. Requires a backend with node geometry and a
  /// receiver with >= 2 antennas — failures come back in the Status.
  /// `options` sizes the worker fan-out; results are identical for every
  /// setting.
  chronos::Result<LocateOutcome> locate(
      chronos::NodeId tx, chronos::NodeId rx, mathx::Rng& rng,
      const std::optional<geom::Vec2>& hint = std::nullopt,
      const BatchOptions& options = {}) const;

  /// Runs many independent localizations concurrently, one pool job per
  /// request (each job's pair sweep runs inline within it). Request i
  /// draws from its own split stream, so results are bit-identical for
  /// every thread count and equal `locate()` on that stream. Advances
  /// `rng` by exactly one fork(). Per-request failures land in
  /// outcome[i].status.
  std::vector<LocateOutcome> locate_batch(
      std::span<const chronos::LocateRequest> requests, mathx::Rng& rng,
      const BatchOptions& options = {}) const;

  // ----------------------------------------------------------- diagnostics

  const CalibrationTable& calibration() const { return *calibration_; }
  const RangingPipeline& pipeline() const { return *pipeline_; }

  /// Size of the persistent session pool (0 until a batched call first
  /// needs parallelism). Diagnostics only — never affects results.
  std::size_t session_threads() const;

 private:
  /// Returns the session pool, lazily started / grown to >= `threads`
  /// workers. Thread-safe; callers receive a shared reference so a
  /// concurrent grow can never destroy a pool under a running batch.
  std::shared_ptr<WorkerPool> session_pool(int threads) const;

  /// The one batch path under measure_batch, submit_batch and locate:
  /// forks `rng` once, opens an unbounded session (poolless, so inline,
  /// when the batch resolves to one thread), and admits each request as
  /// its own ticket on stream i. Slots `failed` marks (empty, or one Status
  /// per request) go through push_failed, so ticket i is request i.
  RangingSession feed(std::span<const ResolvedRequest> requests,
                      std::span<const chronos::Status> failed,
                      mathx::Rng& rng, const BatchOptions& options) const;

  EngineConfig config_;
  std::shared_ptr<const SweepSource> source_;
  // Pipeline and calibration live behind shared_ptrs so sessions can
  // co-own them: a session stays collectable even after the engine is
  // gone, and a calibrate()/set_calibration() while batches are in flight
  // swaps the table without pulling it out from under them.
  std::shared_ptr<const RangingPipeline> pipeline_;
  std::shared_ptr<const CalibrationTable> calibration_;
  LocalizerOptions localizer_;

  mutable chronos::Mutex pool_mutex_;
  /// Lazily-built grow-never-shrink session pool. Guarded: a concurrent
  /// grow swaps the shared_ptr, and readers must never observe the swap
  /// mid-write — they take their own reference under the lock and use it
  /// outside (the pointee is independently thread-safe).
  mutable std::shared_ptr<WorkerPool> pool_ CHRONOS_GUARDED_BY(pool_mutex_);
};

}  // namespace chronos::core
