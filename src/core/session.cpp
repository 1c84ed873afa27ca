#include "core/session.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <utility>

#include "core/retry.hpp"
#include "core/worker_pool.hpp"
#include "mathx/annotations.hpp"
#include "mathx/contracts.hpp"

namespace chronos::core {

namespace {

/// What the per-ticket jobs co-own. Deliberately does NOT reference the
/// pool — a worker thread may drop the last reference, and it must never
/// end up destroying (and thus self-joining) its own pool. The pool is
/// held caller-side by RangingSession::State.
struct Shared {
  const mathx::Rng base;
  const std::shared_ptr<const SweepSource> source;
  const std::shared_ptr<const RangingPipeline> pipeline;
  const std::shared_ptr<const CalibrationTable> calibration;
  const chronos::RetryPolicy retry;

  mutable chronos::Mutex mutex;
  mutable chronos::CondVar cv;
  /// Tickets issued.
  std::uint64_t submitted CHRONOS_GUARDED_BY(mutex) = 0;
  /// Tickets whose result is in `done` or already collected.
  std::uint64_t finished CHRONOS_GUARDED_BY(mutex) = 0;
  /// Tickets returned to the caller.
  std::uint64_t collected CHRONOS_GUARDED_BY(mutex) = 0;
  /// Finished, uncollected results.
  std::map<std::uint64_t, RangingResult> done CHRONOS_GUARDED_BY(mutex);

  Shared(const mathx::Rng& b, std::shared_ptr<const SweepSource> src,
         std::shared_ptr<const RangingPipeline> pipe,
         std::shared_ptr<const CalibrationTable> cal,
         const chronos::RetryPolicy& retry_policy)
      : base(b),
        source(std::move(src)),
        pipeline(std::move(pipe)),
        calibration(std::move(cal)),
        retry(retry_policy) {}
};

/// The one job body: ranges `requests` on streams
/// base.split(first_stream + j). Sweep failures land in their slot's
/// status; the good sweeps then drain through ONE
/// RangingPipeline::estimate_batch (the multi-RHS solver panel), and an
/// index scatter re-aligns the estimates with their slots. A single
/// request is a group of one. Anything thrown is a library defect: once
/// the shared panel solve has failed, no per-ticket result can be trusted,
/// so every ticket in the group reports kInternal.
std::vector<RangingResult> range_group(
    const Shared& shared, std::uint64_t first_stream,
    std::span<const ResolvedRequest> requests) {
  std::vector<RangingResult> results(requests.size());
  try {
    std::vector<phy::SweepMeasurement> sweeps;
    std::vector<std::size_t> slots;
    sweeps.reserve(requests.size());
    slots.reserve(requests.size());
    for (std::size_t j = 0; j < requests.size(); ++j) {
      mathx::Rng child =
          shared.base.split(first_stream + static_cast<std::uint64_t>(j));
      auto sweep = shared.source->sweep_for(requests[j], child);
      if (!sweep.ok()) {
        results[j].status = sweep.status();
        continue;
      }
      sweeps.push_back(std::move(sweep).value());
      slots.push_back(j);
    }
    if (!sweeps.empty()) {
      auto estimates =
          shared.pipeline->estimate_batch(sweeps, *shared.calibration);
      for (std::size_t k = 0; k < slots.size(); ++k) {
        results[slots[k]] = std::move(estimates[k]);
      }
    }
    // Retries ride per ticket AFTER the shared panel: only failed slots
    // pay per-request retry solves, and each retry attempt is a pure
    // function of its ticket stream — bit-identical to range_with_retries.
    for (std::size_t j = 0; j < requests.size(); ++j) {
      results[j] = finish_with_retries(
          *shared.source, *shared.pipeline, *shared.calibration, requests[j],
          shared.base.split(first_stream + static_cast<std::uint64_t>(j)),
          std::move(results[j]), shared.retry);
    }
  } catch (const std::exception& e) {
    for (auto& result : results) {
      result = RangingResult{};
      result.status = {chronos::StatusCode::kInternal, e.what()};
    }
  } catch (...) {
    for (auto& result : results) {
      result = RangingResult{};
      result.status = {chronos::StatusCode::kInternal,
                       "non-exception throw while ranging"};
    }
  }
  return results;
}

/// Publishes a finished group: tickets first_ticket.. get `results`.
void complete(Shared& shared, std::uint64_t first_ticket,
              std::vector<RangingResult> results) {
  chronos::MutexLock lock(shared.mutex);
  for (std::size_t j = 0; j < results.size(); ++j) {
    shared.done.emplace(first_ticket + static_cast<std::uint64_t>(j),
                        std::move(results[j]));
  }
  shared.finished += results.size();
  shared.cv.notify_all();
}

}  // namespace

struct RangingSession::State {
  std::shared_ptr<Shared> shared;
  /// Caller-side ownership only; nullptr runs jobs on the admitting thread.
  std::shared_ptr<WorkerPool> pool;
  std::size_t depth = 1;
};

std::size_t RangingSession::queue_depth() const {
  CHRONOS_EXPECTS(state_ != nullptr, "queue_depth() on an invalid session");
  return state_->depth;
}

int RangingSession::threads() const {
  CHRONOS_EXPECTS(state_ != nullptr, "threads() on an invalid session");
  return state_->pool ? static_cast<int>(state_->pool->size()) : 1;
}

chronos::Result<std::uint64_t> RangingSession::try_submit(
    const chronos::RangingRequest& request) {
  CHRONOS_EXPECTS(state_ != nullptr, "try_submit() on an invalid session");
  auto queue_full = [this] {
    return chronos::Status{
        chronos::StatusCode::kQueueFull,
        "submission queue at depth " + std::to_string(state_->depth) +
            "; collect results and resubmit"};
  };
  // Capacity first, resolution second: rejection is the hot path of a
  // saturating producer, and it must not pay a directory lookup (plus two
  // device copies) just to throw the result away. claim() re-checks under
  // the lock, so a concurrent producer sneaking in between the two checks
  // still cannot overfill the queue. The check itself must stay
  // allocation-free (a malloc under a saturating producer's rejection path
  // would serialize producers on the heap lock) — the lint region makes
  // that a compile-tree guarantee.
  // lint:region(no-alloc)
  if (in_flight() >= state_->depth) return queue_full();
  // lint:endregion(no-alloc)
  auto resolved = state_->shared->source->resolve(request);
  if (!resolved.ok()) return resolved.status();
  const auto ticket = claim(1, /*block=*/false);
  if (!ticket) return queue_full();
  dispatch(*ticket, *ticket, {&resolved.value(), 1});
  return *ticket;
}

chronos::Result<std::uint64_t> RangingSession::submit(
    const chronos::RangingRequest& request) {
  CHRONOS_EXPECTS(state_ != nullptr, "submit() on an invalid session");
  auto resolved = state_->shared->source->resolve(request);
  if (!resolved.ok()) return resolved.status();
  return submit_group({&resolved.value(), 1});
}

std::uint64_t RangingSession::submit_group(
    std::span<const ResolvedRequest> requests) {
  CHRONOS_EXPECTS(state_ != nullptr, "submit_group() on an invalid session");
  CHRONOS_EXPECTS(!requests.empty(),
                  "submit_group() needs at least one request");
  CHRONOS_EXPECTS(requests.size() <= state_->depth,
                  "group larger than queue depth would never admit");
  const std::uint64_t first = *claim(requests.size(), /*block=*/true);
  // Local admission: each ticket addresses its own split stream.
  dispatch(first, first, requests);
  return first;
}

std::optional<std::uint64_t> RangingSession::try_submit_stream(
    const ResolvedRequest& request, std::uint64_t stream_index) {
  CHRONOS_EXPECTS(state_ != nullptr,
                  "try_submit_stream() on an invalid session");
  const auto ticket = claim(1, /*block=*/false);
  if (!ticket) return std::nullopt;
  // Sharded admission: the caller owns the global stream space.
  dispatch(*ticket, stream_index, {&request, 1});
  return ticket;
}

std::optional<std::uint64_t> RangingSession::claim(std::size_t count,
                                                   bool block) {
  auto& shared = *state_->shared;
  const std::size_t depth = state_->depth;
  // Admission itself is allocation-free (see try_submit): check + ticket
  // claim touch only counters under the lock.
  // lint:region(no-alloc)
  chronos::MutexLock lock(shared.mutex);
  auto room = [&]() CHRONOS_REQUIRES(shared.mutex) {
    return shared.submitted - shared.finished + count <= depth;
  };
  if (block) {
    shared.cv.wait(shared.mutex, room);
  } else if (!room()) {
    return std::nullopt;
  }
  const std::uint64_t first = shared.submitted;
  shared.submitted += count;
  return first;
  // lint:endregion(no-alloc)
}

void RangingSession::dispatch(std::uint64_t first_ticket,
                              std::uint64_t first_stream,
                              std::span<const ResolvedRequest> requests) {
  auto& shared = *state_->shared;
  if (state_->pool == nullptr) {
    complete(shared, first_ticket, range_group(shared, first_stream, requests));
    return;
  }
  (void)state_->pool->submit(
      [payload = state_->shared, first_ticket, first_stream,
       group = std::vector<ResolvedRequest>(requests.begin(),
                                            requests.end())]() {
        complete(*payload, first_ticket,
                 range_group(*payload, first_stream, group));
      });
}

std::uint64_t RangingSession::push_failed(chronos::Status status) {
  CHRONOS_EXPECTS(state_ != nullptr, "push_failed() on an invalid session");
  CHRONOS_EXPECTS(!status.ok(), "push_failed() needs a non-ok status");
  auto& shared = *state_->shared;
  RangingResult result;
  result.status = std::move(status);
  chronos::MutexLock lock(shared.mutex);
  const auto ticket = shared.submitted++;
  shared.done.emplace(ticket, std::move(result));
  ++shared.finished;
  shared.cv.notify_all();
  return ticket;
}

std::size_t RangingSession::submitted() const {
  CHRONOS_EXPECTS(state_ != nullptr, "submitted() on an invalid session");
  chronos::MutexLock lock(state_->shared->mutex);
  return state_->shared->submitted;
}

std::size_t RangingSession::in_flight() const {
  CHRONOS_EXPECTS(state_ != nullptr, "in_flight() on an invalid session");
  chronos::MutexLock lock(state_->shared->mutex);
  return state_->shared->submitted - state_->shared->finished;
}

std::size_t RangingSession::collected() const {
  CHRONOS_EXPECTS(state_ != nullptr, "collected() on an invalid session");
  chronos::MutexLock lock(state_->shared->mutex);
  return state_->shared->collected;
}

bool RangingSession::all_done() const {
  CHRONOS_EXPECTS(state_ != nullptr, "all_done() on an invalid session");
  chronos::MutexLock lock(state_->shared->mutex);
  return state_->shared->finished == state_->shared->submitted;
}

void RangingSession::wait_all() const {
  CHRONOS_EXPECTS(state_ != nullptr, "wait_all() on an invalid session");
  auto& shared = *state_->shared;
  chronos::MutexLock lock(shared.mutex);
  shared.cv.wait(shared.mutex, [&]() CHRONOS_REQUIRES(shared.mutex) {
    return shared.finished == shared.submitted;
  });
}

bool RangingSession::next_ready() const {
  CHRONOS_EXPECTS(state_ != nullptr, "next_ready() on an invalid session");
  chronos::MutexLock lock(state_->shared->mutex);
  return state_->shared->done.contains(state_->shared->collected);
}

RangingResult RangingSession::next() {
  CHRONOS_EXPECTS(state_ != nullptr, "next() on an invalid session");
  auto& shared = *state_->shared;
  chronos::MutexLock lock(shared.mutex);
  CHRONOS_EXPECTS(shared.collected < shared.submitted,
                  "next() with every submitted result already collected");
  const auto ticket = shared.collected;
  shared.cv.wait(shared.mutex, [&]() CHRONOS_REQUIRES(shared.mutex) {
    return shared.done.contains(ticket);
  });
  auto node = shared.done.extract(ticket);
  ++shared.collected;
  // A slot may have freed for a blocked submit(); results leaving the
  // buffer never free slots (depth bounds unfinished work), but waking
  // submitters here is harmless and keeps the logic obviously live.
  shared.cv.notify_all();
  return std::move(node.mapped());
}

std::vector<RangingResult> RangingSession::drain() {
  CHRONOS_EXPECTS(state_ != nullptr, "drain() on an invalid session");
  std::uint64_t target = 0;
  {
    chronos::MutexLock lock(state_->shared->mutex);
    target = state_->shared->submitted;
  }
  std::vector<RangingResult> out;
  out.reserve(static_cast<std::size_t>(target));
  while (true) {
    {
      chronos::MutexLock lock(state_->shared->mutex);
      if (state_->shared->collected >= target) break;
    }
    out.push_back(next());
  }
  return out;
}

RangingSession open_ranging_session(
    std::shared_ptr<WorkerPool> pool, std::shared_ptr<const SweepSource> source,
    std::shared_ptr<const RangingPipeline> pipeline,
    std::shared_ptr<const CalibrationTable> calibration,
    const mathx::Rng& base_stream, std::size_t queue_depth,
    const chronos::RetryPolicy& retry) {
  CHRONOS_EXPECTS(source != nullptr && pipeline != nullptr &&
                      calibration != nullptr,
                  "a session needs a source, pipeline, and calibration");
  CHRONOS_EXPECTS(queue_depth >= 1, "queue depth must be >= 1");
  CHRONOS_EXPECTS(retry.max_attempts >= 1, "max_attempts must be >= 1");

  auto state = std::make_shared<RangingSession::State>();
  state->shared = std::make_shared<Shared>(base_stream, std::move(source),
                                           std::move(pipeline),
                                           std::move(calibration), retry);
  state->pool = std::move(pool);
  state->depth = queue_depth;

  RangingSession session;
  session.state_ = std::move(state);
  return session;
}

std::size_t ranging_solve_group(std::size_t n_requests, std::size_t threads) {
  // 8 RHS per panel is where the measured per-RHS gain of the multi-RHS
  // FISTA path flattens out (plan lookup + workspace growth are fully
  // amortised); wider groups only hurt parallel load balance.
  constexpr std::size_t kMaxGroup = 8;
  if (threads <= 1) return kMaxGroup;
  return std::min(kMaxGroup,
                  std::max<std::size_t>(1, n_requests / (threads * 4)));
}

}  // namespace chronos::core
