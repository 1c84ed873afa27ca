// The determinism contract of the batched ranging runtime: batching with N
// worker threads is bit-identical to the 1-thread sequential loop, for any
// seed, batch size, and thread count. This is the property that makes the
// worker pool safe to adopt everywhere — parallelism can never change a
// result, only the wall clock.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/engine.hpp"
#include "core/fault_injection.hpp"
#include "core/retry.hpp"
#include "sim/environment.hpp"
#include "sim/radio.hpp"
#include "sim_nodes.hpp"

namespace chronos::core {
namespace {

/// A reduced sweep plan (every 5th US band, one exchange) keeps each request
/// cheap; determinism does not depend on the plan.
EngineConfig fast_config() {
  EngineConfig ec;
  const auto& plan = phy::us_band_plan();
  for (std::size_t i = 0; i < plan.size(); i += 5) {
    ec.link.bands.push_back(plan[i]);
  }
  ec.link.exchanges_per_band = 1;
  return ec;
}

/// A reduced-plan simulator backend over `env` with no nodes yet.
std::shared_ptr<SimSweepSource> fast_source(sim::Environment env) {
  return test::sim_nodes(std::move(env), fast_config().link);
}

/// Registers one laptop receiver (id 1) and `n` mobile transmitters (id
/// 100 + i) with `source`; request i ranges transmitter i against receiver
/// antenna i % 3.
std::vector<chronos::RangingRequest> make_requests(SimSweepSource& source,
                                                   std::size_t n) {
  const chronos::NodeId rx{1};
  source.add_node(rx, sim::make_laptop({12.0, 9.0}, 0.3, 77));
  std::vector<chronos::RangingRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    const chronos::NodeId tx{100 + i};
    const double x = 2.0 + 0.7 * static_cast<double>(i % 11);
    const double y = 2.0 + 0.5 * static_cast<double>(i % 7);
    source.add_node(tx, sim::make_mobile({x, y}, 100 + i));
    reqs.push_back({{tx, 0}, {rx, i % 3}});
  }
  return reqs;
}

void expect_bitwise_equal(const RangingResult& a, const RangingResult& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.tof_s, b.tof_s);
  EXPECT_EQ(a.distance_m, b.distance_m);
  EXPECT_EQ(a.toa_s, b.toa_s);
  EXPECT_EQ(a.detection_delay_s, b.detection_delay_s);
  EXPECT_EQ(a.peak_found, b.peak_found);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  ASSERT_EQ(a.profile.magnitudes.size(), b.profile.magnitudes.size());
  for (std::size_t i = 0; i < a.profile.magnitudes.size(); ++i) {
    EXPECT_EQ(a.profile.magnitudes[i], b.profile.magnitudes[i]);
  }
  ASSERT_EQ(a.profile.peaks.size(), b.profile.peaks.size());
  for (std::size_t i = 0; i < a.profile.peaks.size(); ++i) {
    EXPECT_EQ(a.profile.peaks[i].delay_s, b.profile.peaks[i].delay_s);
    EXPECT_EQ(a.profile.peaks[i].amplitude, b.profile.peaks[i].amplitude);
  }
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].delay_s, b.candidates[i].delay_s);
    EXPECT_EQ(a.candidates[i].matched_filter, b.candidates[i].matched_filter);
    EXPECT_EQ(a.candidates[i].accepted, b.candidates[i].accepted);
  }
}

TEST(BatchDeterminism, ThreadCountNeverChangesResults) {
  const auto source = fast_source(sim::office_20x20());
  const ChronosEngine eng(source, fast_config());
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    for (const std::size_t batch_size : {1u, 5u, 12u}) {
      const auto requests = make_requests(*source, batch_size);

      mathx::Rng rng_seq(seed);
      const auto sequential =
          eng.measure_batch(requests, rng_seq, BatchOptions{1});
      EXPECT_EQ(sequential.threads_used, 1);

      for (const int threads : {2, 4, 8}) {
        mathx::Rng rng_par(seed);
        const auto parallel =
            eng.measure_batch(requests, rng_par, BatchOptions{threads});
        ASSERT_EQ(parallel.results.size(), sequential.results.size());
        for (std::size_t i = 0; i < parallel.results.size(); ++i) {
          expect_bitwise_equal(parallel.results[i], sequential.results[i]);
        }
        // The caller's stream advances identically too, so code *after* a
        // batch stays reproducible regardless of the pool size used.
        EXPECT_EQ(rng_seq.uniform(0.0, 1.0), rng_par.uniform(0.0, 1.0));
        rng_seq = mathx::Rng(seed);
        (void)eng.measure_batch(requests, rng_seq, BatchOptions{1});
      }
    }
  }
}

TEST(BatchDeterminism, MatchesManualSequentialSplitLoop) {
  // The documented contract, spelled out: request i is ranged on stream
  // base.split(i) where base = rng.fork(tag). Reproduce it by hand via two
  // identically-seeded engines and compare.
  const auto source = fast_source(sim::office_20x20());
  const ChronosEngine eng(source, fast_config());
  const auto requests = make_requests(*source, 6);

  mathx::Rng rng_a(123);
  const auto batch = eng.measure_batch(requests, rng_a, BatchOptions{4});

  mathx::Rng rng_b(123);
  const auto again = eng.measure_batch(requests, rng_b, BatchOptions{1});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_bitwise_equal(batch.results[i], again.results[i]);
  }

  // Second input, against an oracle that never opens a session: a hand
  // loop of range_with_retries on base.split(i). Id-based requests through
  // a fault-injecting backend with retries, and one unresolvable request
  // at slot 4 — interior to its solve group at every thread count (48
  // requests: groups of 8, 6, and 3 at 1, 2, and 4 threads), so the group
  // is split around it.
  constexpr std::size_t kLinks = 48;
  constexpr std::size_t kBad = 4;
  const auto inner = fast_source(sim::office_20x20());
  std::vector<chronos::RangingRequest> ids = make_requests(*inner, kLinks);
  ids[kBad].tx.node = chronos::NodeId{9999};  // never registered
  FaultProfile faults = FaultProfile::hostile(0.05);
  faults.p_outage = 0.3;  // retryable: makes the retry ladder run
  const ChronosEngine faulty(
      std::make_shared<FaultInjectingSweepSource>(inner, faults),
      fast_config());
  const chronos::RetryPolicy retry{3, 0.0};

  mathx::Rng rng_oracle(321);
  const mathx::Rng base = rng_oracle.fork(kBatchStreamTag);
  std::vector<RangingResult> oracle(kLinks);
  std::size_t retried = 0;
  for (std::size_t i = 0; i < kLinks; ++i) {
    const auto resolved = faulty.source().resolve(ids[i]);
    if (!resolved.ok()) {
      oracle[i].status = resolved.status();
      continue;
    }
    oracle[i] = range_with_retries(faulty.source(), faulty.pipeline(),
                                   faulty.calibration(), resolved.value(),
                                   base.split(i), retry);
    retried += oracle[i].attempts > 1 ? 1 : 0;
  }
  ASSERT_EQ(oracle[kBad].status.code(), chronos::StatusCode::kUnknownNode);
  ASSERT_GE(retried, 1u) << "fixture never retried";

  auto expect_oracle = [&](const std::vector<RangingResult>& got) {
    ASSERT_EQ(got.size(), kLinks);
    for (std::size_t i = 0; i < kLinks; ++i) {
      EXPECT_EQ(got[i].attempts, oracle[i].attempts) << "slot " << i;
      expect_bitwise_equal(got[i], oracle[i]);
    }
  };
  for (const int threads : {1, 2, 4}) {
    mathx::Rng rng(321);
    expect_oracle(
        faulty.measure_batch(ids, rng, BatchOptions{threads, retry}).results);
  }
  mathx::Rng rng_async(321);
  expect_oracle(
      faulty.submit_batch(ids, rng_async, BatchOptions{4, retry}).drain());
}

TEST(BatchDeterminism, SuccessiveBatchesDiffer) {
  // fork() advances the caller's stream, so re-running the same batch on
  // the same Rng draws fresh noise (batches are not accidentally replayed).
  const auto source = fast_source(sim::anechoic());
  const ChronosEngine eng(source, fast_config());
  const auto requests = make_requests(*source, 2);
  mathx::Rng rng(5);
  const auto first = eng.measure_batch(requests, rng);
  const auto second = eng.measure_batch(requests, rng);
  EXPECT_NE(first.results[0].tof_s, second.results[0].tof_s);
}

TEST(BatchDeterminism, EmptyBatchIsValid) {
  const ChronosEngine eng(fast_source(sim::anechoic()), fast_config());
  mathx::Rng rng(1);
  const auto out =
      eng.measure_batch(std::vector<chronos::RangingRequest>{}, rng);
  EXPECT_TRUE(out.results.empty());
}

TEST(BatchDeterminism, BadRequestYieldsStatusNotAbort) {
  // API v2: one request the backend cannot serve gets its own non-ok
  // status; the other results are untouched and no exception escapes.
  const auto source = fast_source(sim::anechoic());
  const ChronosEngine eng(source, fast_config());
  std::vector<chronos::RangingRequest> requests = make_requests(*source, 3);
  requests[1].tx.antenna = 99;  // out of range -> status, not a throw
  mathx::Rng rng(1);
  const auto batch = eng.measure_batch(requests, rng, BatchOptions{4});
  ASSERT_EQ(batch.results.size(), requests.size());
  EXPECT_TRUE(batch.results[0].status.ok());
  EXPECT_EQ(batch.results[1].status.code(),
            chronos::StatusCode::kAntennaOutOfRange);
  EXPECT_FALSE(batch.results[1].peak_found);
  EXPECT_TRUE(batch.results[2].status.ok());
  EXPECT_TRUE(batch.results[0].peak_found);
}

TEST(BatchSession, SubmitDrainMatchesSynchronousMeasureBatch) {
  // The async path (submit_batch -> RangingSession::drain) must be
  // bit-identical to the synchronous call on the same seed — including how
  // far it advances the caller's rng.
  const auto source = fast_source(sim::office_20x20());
  const ChronosEngine eng(source, fast_config());
  const auto requests = make_requests(*source, 8);

  mathx::Rng rng_sync(77);
  const auto sync = eng.measure_batch(requests, rng_sync, BatchOptions{1});

  mathx::Rng rng_async(77);
  auto session = eng.submit_batch(requests, rng_async, BatchOptions{4});
  EXPECT_TRUE(session.valid());
  EXPECT_EQ(session.submitted(), requests.size());
  const auto async = session.drain();
  EXPECT_EQ(session.collected(), requests.size());

  ASSERT_EQ(async.size(), sync.results.size());
  for (std::size_t i = 0; i < async.size(); ++i) {
    expect_bitwise_equal(async[i], sync.results[i]);
  }
  EXPECT_EQ(rng_sync.uniform(0.0, 1.0), rng_async.uniform(0.0, 1.0));
}

TEST(BatchSession, OutstandingSessionsCollectInAnyOrder) {
  // Pipelined ingestion: several batches in flight at once, collected in
  // reverse submission order, each bit-identical to its sequential
  // reference. The sessions all share the engine's persistent pool.
  const auto source = fast_source(sim::office_20x20());
  const ChronosEngine eng(source, fast_config());
  constexpr std::size_t kBatches = 3;

  std::vector<std::vector<chronos::RangingRequest>> requests;
  std::vector<BatchResult> reference;
  for (std::size_t b = 0; b < kBatches; ++b) {
    requests.push_back(make_requests(*source, 3 + b));
    mathx::Rng rng(1000 + b);
    reference.push_back(
        eng.measure_batch(requests[b], rng, BatchOptions{1}));
  }

  std::vector<RangingSession> sessions;
  for (std::size_t b = 0; b < kBatches; ++b) {
    mathx::Rng rng(1000 + b);
    sessions.push_back(eng.submit_batch(requests[b], rng, BatchOptions{2}));
  }
  for (std::size_t b = kBatches; b-- > 0;) {
    const auto out = sessions[b].drain();
    ASSERT_EQ(out.size(), reference[b].results.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      expect_bitwise_equal(out[i], reference[b].results[i]);
    }
  }
}

TEST(BatchSession, PersistentPoolStartsLazilyAndNeverShrinks) {
  const auto source = fast_source(sim::office_20x20());
  const ChronosEngine eng(source, fast_config());
  EXPECT_EQ(eng.session_threads(), 0u);  // nothing batched yet

  const auto requests = make_requests(*source, 6);
  mathx::Rng rng(3);
  (void)eng.measure_batch(requests, rng, BatchOptions{1});
  EXPECT_EQ(eng.session_threads(), 0u);  // inline path never starts a pool

  (void)eng.measure_batch(requests, rng, BatchOptions{3});
  EXPECT_EQ(eng.session_threads(), 3u);

  (void)eng.measure_batch(requests, rng, BatchOptions{2});
  EXPECT_EQ(eng.session_threads(), 3u);  // smaller request reuses workers

  (void)eng.measure_batch(requests, rng, BatchOptions{5});
  EXPECT_EQ(eng.session_threads(), 5u);  // growth by replacement
}

TEST(BatchSession, WaitAllAndAllDoneObserveCompletion) {
  const auto source = fast_source(sim::office_20x20());
  const ChronosEngine eng(source, fast_config());
  const auto requests = make_requests(*source, 4);
  mathx::Rng rng(21);
  auto session = eng.submit_batch(requests, rng, BatchOptions{2});
  session.wait_all();
  EXPECT_TRUE(session.all_done());
  const auto out = session.drain();
  EXPECT_EQ(out.size(), requests.size());
  EXPECT_GE(session.threads(), 1);
}

TEST(BatchSession, DroppedSessionIsSafe) {
  // Destroying a session without drain() must not crash, deadlock, or
  // disturb later batches (jobs finish against the shared pool and are
  // dropped).
  const auto source = fast_source(sim::office_20x20());
  const ChronosEngine eng(source, fast_config());
  const auto requests = make_requests(*source, 5);
  {
    mathx::Rng rng(33);
    auto session = eng.submit_batch(requests, rng, BatchOptions{2});
    (void)session;
  }
  mathx::Rng rng_seq(34);
  const auto sequential = eng.measure_batch(requests, rng_seq, BatchOptions{1});
  mathx::Rng rng_par(34);
  const auto parallel = eng.measure_batch(requests, rng_par, BatchOptions{4});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_bitwise_equal(parallel.results[i], sequential.results[i]);
  }
}

TEST(BatchSession, SessionOutlivesEngine) {
  // Sessions are self-contained: they co-own the pool, source, pipeline,
  // and calibration, so collecting after the engine died is legal and
  // bit-identical.
  const auto source = fast_source(sim::office_20x20());
  const auto requests = make_requests(*source, 4);
  RangingSession session;
  BatchResult reference;
  {
    const ChronosEngine eng(source, fast_config());
    mathx::Rng rng_ref(55);
    reference = eng.measure_batch(requests, rng_ref, BatchOptions{1});
    mathx::Rng rng(55);
    session = eng.submit_batch(requests, rng, BatchOptions{2});
  }  // engine destroyed while the batch may still be in flight
  const auto out = session.drain();
  ASSERT_EQ(out.size(), reference.results.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    expect_bitwise_equal(out[i], reference.results[i]);
  }
}

TEST(BatchSession, AsyncBadRequestSurfacesAsStatusAtDrain) {
  const auto source = fast_source(sim::anechoic());
  const ChronosEngine eng(source, fast_config());
  std::vector<chronos::RangingRequest> requests = make_requests(*source, 3);
  requests[1].tx.antenna = 99;  // out of range -> status, not a throw
  mathx::Rng rng(1);
  auto session = eng.submit_batch(requests, rng, BatchOptions{2});
  const auto out = session.drain();
  EXPECT_EQ(session.collected(), requests.size());
  ASSERT_EQ(out.size(), requests.size());
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_EQ(out[1].status.code(), chronos::StatusCode::kAntennaOutOfRange);
  EXPECT_TRUE(out[2].status.ok());
}

TEST(BatchDeterminism, LocateBatchIsThreadCountInvariant) {
  const auto source = test::sim_nodes(
      sim::office_20x20(), fast_config().link,
      {{chronos::NodeId{1}, sim::make_laptop({0.0, 0.0}, 0.3, 11)},
       {chronos::NodeId{2}, sim::make_laptop({1.5, 0.0}, 0.3, 22)},
       {chronos::NodeId{3}, sim::make_laptop({10.0, 12.0}, 0.3, 22)}});
  ChronosEngine eng(source, fast_config());
  mathx::Rng cal_rng(9);
  ASSERT_TRUE(
      eng.calibrate(chronos::NodeId{1}, chronos::NodeId{2}, cal_rng).ok());

  std::vector<chronos::LocateRequest> jobs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const chronos::NodeId tx{50 + i};
    const double x = 3.0 + 2.0 * static_cast<double>(i);
    source->add_node(tx, sim::make_mobile({x, 4.0}, 50 + i));
    jobs.push_back({tx, chronos::NodeId{3}, std::nullopt});
  }

  mathx::Rng rng_seq(31);
  const auto sequential = eng.locate_batch(jobs, rng_seq, BatchOptions{1});
  mathx::Rng rng_par(31);
  const auto parallel = eng.locate_batch(jobs, rng_par, BatchOptions{8});

  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(sequential[i].result.valid, parallel[i].result.valid);
    EXPECT_EQ(sequential[i].result.position.x, parallel[i].result.position.x);
    EXPECT_EQ(sequential[i].result.position.y, parallel[i].result.position.y);
    ASSERT_EQ(sequential[i].details.size(), parallel[i].details.size());
    for (std::size_t k = 0; k < sequential[i].details.size(); ++k) {
      expect_bitwise_equal(sequential[i].details[k], parallel[i].details[k]);
    }
  }
}

}  // namespace
}  // namespace chronos::core
