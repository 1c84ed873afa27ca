#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "core/worker_pool.hpp"
#include "mathx/contracts.hpp"
#include "mathx/stats.hpp"
#include "sim/environment.hpp"

namespace chronos::core {

namespace {
/// fork() tag for locate_batch's base stream ("locate" in ASCII).
constexpr std::uint64_t kLocateBatchTag = 0x6C6F63617465ull;

const std::vector<phy::WifiBand>& checked_bands(
    const std::shared_ptr<const SweepSource>& source) {
  CHRONOS_EXPECTS(source != nullptr, "ChronosEngine needs a sweep source");
  return source->bands();
}

/// Threads a batch of `n_requests` actually uses under `options`.
int resolve_batch_threads(const BatchOptions& options,
                          std::size_t n_requests) {
  CHRONOS_EXPECTS(options.threads >= 0, "batch threads must be >= 0");
  std::size_t n = options.threads == 0
                      ? WorkerPool::default_thread_count()
                      : static_cast<std::size_t>(options.threads);
  n = std::min(n, std::max<std::size_t>(1, n_requests));
  return static_cast<int>(n);
}

/// Id-based requests resolved in place: failed[i] is non-ok exactly where
/// requests[i] did not resolve (its placeholder is never ranged).
struct Resolution {
  std::vector<ResolvedRequest> requests;
  std::vector<chronos::Status> failed;
};

Resolution resolve_all(const SweepSource& source,
                       std::span<const chronos::RangingRequest> requests) {
  Resolution out;
  out.requests.resize(requests.size());
  out.failed.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto r = source.resolve(requests[i]);
    if (r.ok()) {
      out.requests[i] = std::move(r).value();
    } else {
      out.failed[i] = r.status();
    }
  }
  return out;
}

/// Drains a fed batch session into a BatchResult; `t0` starts the
/// wall_time_s diagnostic.
BatchResult collect(RangingSession session,
                    std::chrono::steady_clock::time_point t0) {
  BatchResult out;
  out.results = session.drain();
  out.threads_used = std::min(
      session.threads(), static_cast<int>(std::max<std::size_t>(
                             1, out.results.size())));
  // Diagnostic only: results came out of drain() above.
  // lint:allow(nondeterminism)
  out.wall_time_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return out;
}
}  // namespace

ChronosEngine::ChronosEngine(std::shared_ptr<const SweepSource> source,
                             EngineConfig config)
    : config_(std::move(config)),
      source_(std::move(source)),
      pipeline_(std::make_shared<const RangingPipeline>(
          checked_bands(source_), config_.ranging)),
      calibration_(std::make_shared<const CalibrationTable>()) {}

// ------------------------------------------------------------- calibration

chronos::Status ChronosEngine::calibrate(chronos::NodeId tx, chronos::NodeId rx,
                                         mathx::Rng& rng) {
  if (!source_->has_geometry()) {
    return {chronos::StatusCode::kUnavailable,
            "backend '" + source_->backend_name() +
                "' carries no device descriptions; install a recorded table "
                "via set_calibration()"};
  }
  const auto resolved = source_->resolve({{tx, 0}, {rx, 0}});
  if (!resolved.ok()) return resolved.status();
  CHRONOS_EXPECTS(config_.calibration_sweeps >= 1,
                  "need at least one calibration sweep");

  // Calibration fixture: same radios, anechoic environment, known distance.
  // Deliberately built on a local simulator regardless of the measurement
  // backend — this is the paper's a-priori bench calibration, not a field
  // measurement. Trace deployments with a recorded calibration install it
  // via set_calibration() instead.
  sim::Device tx_fix = resolved.value().tx;
  sim::Device rx_fix = resolved.value().rx;
  tx_fix.antennas = {{0.0, 0.0}};
  rx_fix.antennas = {{config_.calibration_distance_m, 0.0}};

  sim::LinkSimConfig fixture_cfg = config_.link;
  fixture_cfg.bands = source_->bands();
  sim::LinkSimulator fixture(sim::anechoic(), fixture_cfg);
  std::vector<phy::SweepMeasurement> sweeps;
  sweeps.reserve(static_cast<std::size_t>(config_.calibration_sweeps));
  for (int i = 0; i < config_.calibration_sweeps; ++i) {
    sweeps.push_back(fixture.simulate_sweep(tx_fix, 0, rx_fix, 0, rng));
  }
  calibration_ = std::make_shared<const CalibrationTable>(
      calibrate_from_sweeps(sweeps, config_.calibration_distance_m,
                            config_.ranging.combining));
  return chronos::Status::Ok();
}

void ChronosEngine::set_calibration(CalibrationTable calibration) {
  calibration_ =
      std::make_shared<const CalibrationTable>(std::move(calibration));
}

// ----------------------------------------------------------------- ranging

chronos::Result<RangingResult> ChronosEngine::measure(
    const chronos::RangingRequest& request, mathx::Rng& rng) const {
  auto resolved = source_->resolve(request);
  if (!resolved.ok()) return resolved.status();
  auto sweep = source_->sweep_for(resolved.value(), rng);
  if (!sweep.ok()) return sweep.status();
  auto result = pipeline_->estimate(sweep.value(), *calibration_);
  // Detection-gate rejections surface as the call's status (single-request
  // callers have no per-slot status to consult).
  if (!result.status.ok()) return result.status;
  return result;
}

chronos::Result<phy::SweepMeasurement> ChronosEngine::capture_sweep(
    const chronos::RangingRequest& request, mathx::Rng& rng) const {
  auto resolved = source_->resolve(request);
  if (!resolved.ok()) return resolved.status();
  return source_->sweep_for(resolved.value(), rng);
}

chronos::Result<RangingResult> ChronosEngine::estimate(
    const phy::SweepMeasurement& sweep) const {
  // Distinguish a recoverable plan mismatch (the sweep was recorded under
  // a different band plan — rebuild the pipeline for it) from structural
  // damage before handing the sweep to the pipeline.
  const auto& plan = source_->bands();
  if (sweep.bands.size() != plan.size()) {
    return chronos::Status{
        chronos::StatusCode::kBandMismatch,
        "sweep covers " + std::to_string(sweep.bands.size()) +
            " bands; this engine's plan has " + std::to_string(plan.size())};
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (sweep.bands[i].empty()) break;  // structural issue: pipeline reports
    if (sweep.bands[i].front().forward.band.channel != plan[i].channel) {
      return chronos::Status{
          chronos::StatusCode::kBandMismatch,
          "sweep band " + std::to_string(i) + " is channel " +
              std::to_string(sweep.bands[i].front().forward.band.channel) +
              "; this engine's plan expects channel " +
              std::to_string(plan[i].channel)};
    }
  }
  try {
    auto result = pipeline_->estimate(sweep, *calibration_);
    if (!result.status.ok()) return result.status;
    return result;
  } catch (const std::invalid_argument& e) {
    return chronos::Status{chronos::StatusCode::kMalformedSweep, e.what()};
  }
}

// ----------------------------------------------------------------- batches

std::shared_ptr<WorkerPool> ChronosEngine::session_pool(int threads) const {
  const auto wanted = static_cast<std::size_t>(std::max(threads, 1));
  chronos::MutexLock lock(pool_mutex_);
  if (!pool_ || pool_->size() < wanted) {
    // Grow by replacement (WorkerPool is fixed-size by design). The old
    // pool, if any, stays alive through the shared_ptr held by every
    // outstanding session, so in-flight batches drain undisturbed.
    pool_ = std::make_shared<WorkerPool>(wanted);
  }
  return pool_;
}

std::size_t ChronosEngine::session_threads() const {
  chronos::MutexLock lock(pool_mutex_);
  return pool_ ? pool_->size() : 0;
}

RangingSession ChronosEngine::feed(std::span<const ResolvedRequest> requests,
                                   std::span<const chronos::Status> failed,
                                   mathx::Rng& rng,
                                   const BatchOptions& options) const {
  CHRONOS_EXPECTS(failed.empty() || failed.size() == requests.size(),
                  "failed must be empty or match the request count");
  const std::size_t n = requests.size();
  const int threads = resolve_batch_threads(options, n);
  // A batch is a session with no admission bound: the caller opted into
  // batch semantics, so the submission side needs no flow control. One
  // thread needs no pool: each request then ranges on this thread — which
  // also keeps locate_batch's nested one-thread batches off the pool.
  auto session = open_ranging_session(
      threads > 1 ? session_pool(threads) : nullptr, source_, pipeline_,
      calibration_, rng.fork(kBatchStreamTag),
      std::numeric_limits<std::size_t>::max(), options.retry);
  // Request i takes local ticket i — failed slots through push_failed, the
  // rest through the daemon's sharded admission on stream i, which an
  // unbounded session never rejects — so results stay index-aligned.
  for (std::size_t i = 0; i < n; ++i) {
    if (!failed.empty() && !failed[i].ok()) {
      (void)session.push_failed(failed[i]);
    } else {
      (void)session.try_submit_stream(requests[i], i);
    }
  }
  return session;
}

BatchResult ChronosEngine::measure_batch(
    std::span<const chronos::RangingRequest> requests, mathx::Rng& rng,
    const BatchOptions& options) const {
  // Wall-clock diagnostic (wall_time_s); results are a pure function of
  // the session's streams. lint:allow(nondeterminism)
  const auto t0 = std::chrono::steady_clock::now();
  const Resolution resolved = resolve_all(*source_, requests);
  return collect(feed(resolved.requests, resolved.failed, rng, options), t0);
}

RangingSession ChronosEngine::submit_batch(
    std::span<const chronos::RangingRequest> requests, mathx::Rng& rng,
    const BatchOptions& options) const {
  const Resolution resolved = resolve_all(*source_, requests);
  return feed(resolved.requests, resolved.failed, rng, options);
}

RangingSession ChronosEngine::open_session(mathx::Rng& rng,
                                           const SessionOptions& options)
    const {
  CHRONOS_EXPECTS(options.threads >= 0, "session threads must be >= 0");
  const int threads =
      options.threads == 0
          ? static_cast<int>(WorkerPool::default_thread_count())
          : options.threads;
  return open_ranging_session(session_pool(threads), source_, pipeline_,
                              calibration_, rng.fork(kBatchStreamTag),
                              options.queue_depth, options.retry);
}

// ------------------------------------------------------------ localization

chronos::Result<LocateOutcome> ChronosEngine::locate(
    chronos::NodeId tx, chronos::NodeId rx, mathx::Rng& rng,
    const std::optional<geom::Vec2>& hint, const BatchOptions& options) const {
  if (!source_->has_geometry()) {
    return chronos::Status{
        chronos::StatusCode::kUnavailable,
        "backend '" + source_->backend_name() +
            "' carries no antenna geometry; localization needs it"};
  }
  const auto resolved = source_->resolve({{tx, 0}, {rx, 0}});
  if (!resolved.ok()) return resolved.status();
  const std::vector<geom::Vec2>& tx_antennas = resolved.value().tx.antennas;
  const std::vector<geom::Vec2>& rx_antennas = resolved.value().rx.antennas;
  if (rx_antennas.size() < 2) {
    return chronos::Status{
        chronos::StatusCode::kInvalidArgument,
        "localization needs a receiver with >= 2 antennas"};
  }

  // The tx-major pair loop is a thin client of the batched runtime:
  // enumerate every (tx antenna, rx antenna) pair as a request and let the
  // pool range them.
  std::vector<ResolvedRequest> requests;
  requests.reserve(tx_antennas.size() * rx_antennas.size());
  for (std::size_t ta = 0; ta < tx_antennas.size(); ++ta) {
    for (std::size_t ra = 0; ra < rx_antennas.size(); ++ra) {
      requests.push_back(
          {resolved.value().tx, ta, resolved.value().rx, ra});
    }
  }

  LocateOutcome out;
  out.details = feed(requests, {}, rng, options).drain();
  // Pairwise distances between every transmit and receive antenna enter
  // one joint optimisation (paper §8). Per-TX-antenna solutions are also
  // recorded for diagnostics.
  std::vector<geom::Vec2> anchors;
  std::vector<double> all_distances;
  std::size_t k = 0;
  for (std::size_t ta = 0; ta < tx_antennas.size(); ++ta) {
    std::vector<double> distances;
    distances.reserve(rx_antennas.size());
    for (std::size_t ra = 0; ra < rx_antennas.size(); ++ra, ++k) {
      distances.push_back(out.details[k].distance_m);
      anchors.push_back(rx_antennas[ra]);
      all_distances.push_back(out.details[k].distance_m);
    }
    if (ta == 0) out.antenna_distances_m = distances;
    out.per_tx_antenna.push_back(
        localize(rx_antennas, distances, localizer_, hint));
  }

  // Joint fit: solves for the TX device position against all ranges at
  // once. TX antennas are approximated by the device center (<= half the
  // antenna span of model error), which is repaid many times over: the
  // joint residual picks the correct mirror side by majority and averages
  // per-link multipath bias, which decorrelates across antennas.
  out.result = localize(anchors, all_distances, localizer_, hint);
  return out;
}

std::vector<LocateOutcome> ChronosEngine::locate_batch(
    std::span<const chronos::LocateRequest> requests, mathx::Rng& rng,
    const BatchOptions& options) const {
  const mathx::Rng base = rng.fork(kLocateBatchTag);
  const int threads = resolve_batch_threads(options, requests.size());

  // One pool job per localization; each job runs its own pair sweeps
  // inline (BatchOptions{1}) so the pool is never nested. Job i draws from
  // base.split(i), making the output a pure function of (engine, requests,
  // rng state) exactly as in measure_batch. A request that fails to
  // resolve yields an outcome carrying the status (its split stream goes
  // unused — neighbours are unaffected).
  auto process = [&](std::size_t i) {
    mathx::Rng child = base.split(static_cast<std::uint64_t>(i));
    auto out = locate(requests[i].tx, requests[i].rx, child,
                      requests[i].hint, BatchOptions{1});
    if (out.ok()) return std::move(out).value();
    LocateOutcome failed;
    failed.status = out.status();
    return failed;
  };

  if (threads <= 1) {
    std::vector<LocateOutcome> out;
    out.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) out.push_back(process(i));
    return out;
  }
  return parallel_map_on(*session_pool(threads), requests.size(), process);
}

}  // namespace chronos::core
