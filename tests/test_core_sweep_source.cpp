// The SweepSource backend seam: SimSweepSource must be bit-identical to the
// pre-seam simulator path, and TraceSweepSource must make a recorded trace
// (write_sweep -> read_sweep -> replay) range exactly like the in-memory
// sweep — the estimator cannot tell the backends apart.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/engine.hpp"
#include "phy/csi_io.hpp"
#include "sim/environment.hpp"
#include "sim/radio.hpp"
#include "sim_nodes.hpp"

namespace chronos::core {
namespace {

/// Reduced sweep plan (every 5th US band, one exchange) keeps sweeps cheap;
/// none of the seam properties depend on the plan.
EngineConfig fast_config() {
  EngineConfig ec;
  const auto& plan = phy::us_band_plan();
  for (std::size_t i = 0; i < plan.size(); i += 5) {
    ec.link.bands.push_back(plan[i]);
  }
  ec.link.exchanges_per_band = 1;
  return ec;
}

void expect_bitwise_equal(const RangingResult& a, const RangingResult& b) {
  EXPECT_EQ(a.tof_s, b.tof_s);
  EXPECT_EQ(a.distance_m, b.distance_m);
  EXPECT_EQ(a.toa_s, b.toa_s);
  EXPECT_EQ(a.peak_found, b.peak_found);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
}

TEST(SimSweepSource, MatchesDirectSimulatorBitExactly) {
  const auto ec = fast_config();
  const sim::LinkSimulator link(sim::office_20x20(), ec.link);
  const SimSweepSource source(sim::office_20x20(), ec.link);

  const auto tx = sim::make_mobile({3.0, 4.0}, 7);
  const auto rx = sim::make_laptop({11.0, 9.0}, 0.3, 8);
  mathx::Rng rng_direct(42);
  mathx::Rng rng_seam(42);
  const auto direct = link.simulate_sweep(tx, 0, rx, 1, rng_direct);
  const auto seamed =
      source.sweep_for(ResolvedRequest{tx, 0, rx, 1}, rng_seam).value();

  ASSERT_EQ(direct.bands.size(), seamed.bands.size());
  for (std::size_t bi = 0; bi < direct.bands.size(); ++bi) {
    ASSERT_EQ(direct.bands[bi].size(), seamed.bands[bi].size());
    for (std::size_t c = 0; c < direct.bands[bi].size(); ++c) {
      for (std::size_t k = 0; k < 30; ++k) {
        EXPECT_EQ(direct.bands[bi][c].forward.values[k],
                  seamed.bands[bi][c].forward.values[k]);
        EXPECT_EQ(direct.bands[bi][c].reverse.values[k],
                  seamed.bands[bi][c].reverse.values[k]);
      }
    }
  }
  // Both drew the same amount from their streams.
  EXPECT_EQ(rng_direct.uniform(0.0, 1.0), rng_seam.uniform(0.0, 1.0));

  // Resolved requests built without resolve() (RangingSession::
  // try_submit_stream callers) are bounds-checked too: an out-of-range
  // antenna on either side is a Status, never a throw or an out-of-bounds
  // read.
  for (const auto& bad : {ResolvedRequest{tx, 1, rx, 1},    // tx: 1 antenna
                          ResolvedRequest{tx, 0, rx, 3}}) {  // rx: 3
    mathx::Rng rng_bad(42);
    chronos::Result<phy::SweepMeasurement> result{
        chronos::Status{chronos::StatusCode::kInternal, "unset"}};
    EXPECT_NO_THROW(result = source.sweep_for(bad, rng_bad));
    EXPECT_EQ(result.status().code(), chronos::StatusCode::kAntennaOutOfRange);
  }
}

TEST(SimSweepSource, EngineMeasureMatchesDirectPipeline) {
  // measure() on registered ids ranges exactly the resolved devices: the
  // same bits as sweeping them by hand and running the engine's pipeline.
  const auto ec = fast_config();
  const auto tx = sim::make_mobile({2.0, 2.0}, 5);
  const auto rx = sim::make_mobile({9.0, 6.0}, 6);
  const ChronosEngine engine(
      test::sim_nodes(sim::office_20x20(), ec.link,
                      {{NodeId{5}, tx}, {NodeId{6}, rx}}),
      ec);

  mathx::Rng rng_engine(11);
  mathx::Rng rng_direct(11);
  const auto measured =
      engine.measure({{NodeId{5}, 0}, {NodeId{6}, 0}}, rng_engine).value();
  const auto sweep =
      engine.source().sweep_for(ResolvedRequest{tx, 0, rx, 0}, rng_direct);
  expect_bitwise_equal(measured, engine.pipeline().estimate(
                                     sweep.value(), engine.calibration()));
  EXPECT_EQ(rng_engine.uniform(0.0, 1.0), rng_direct.uniform(0.0, 1.0));
}

TEST(TraceSweepSource, RoundTripRangesIdenticallyToInMemorySweep) {
  // The satellite contract: write_sweep -> read_sweep -> TraceSweepSource
  // replay must produce ranging output identical to ranging the in-memory
  // sweep directly.
  const auto ec = fast_config();
  const sim::LinkSimulator link(sim::office_20x20(), ec.link);
  const auto tx = sim::make_mobile({2.5, 3.5}, 21);
  const auto rx = sim::make_mobile({8.0, 7.0}, 22);

  mathx::Rng record_rng(77);
  const auto sweep = link.simulate_sweep(tx, 0, rx, 0, record_rng);

  std::stringstream ss;
  phy::write_sweep(ss, sweep);
  auto loaded = phy::read_sweep(ss);

  auto trace = std::make_shared<TraceSweepSource>();
  trace->add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}),
                   std::move(loaded));
  EXPECT_EQ(trace->key_count(), 1u);
  EXPECT_EQ(trace->sweep_count(), 1u);

  const ChronosEngine engine(trace, ec);
  mathx::Rng replay_rng(1);
  // Trace node ids are the recording devices' hardware seeds.
  const auto replayed =
      engine.measure({{NodeId{21}, 0}, {NodeId{22}, 0}}, replay_rng).value();

  const RangingPipeline pipeline(engine.source().bands(), ec.ranging);
  const auto direct = pipeline.estimate(sweep);

  EXPECT_EQ(replayed.tof_s, direct.tof_s);
  EXPECT_EQ(replayed.distance_m, direct.distance_m);
  EXPECT_EQ(replayed.toa_s, direct.toa_s);
  EXPECT_EQ(replayed.solver_iterations, direct.solver_iterations);
  ASSERT_EQ(replayed.profile.magnitudes.size(),
            direct.profile.magnitudes.size());
  for (std::size_t i = 0; i < replayed.profile.magnitudes.size(); ++i) {
    EXPECT_EQ(replayed.profile.magnitudes[i], direct.profile.magnitudes[i]);
  }
}

TEST(TraceSweepSource, BatchedReplayIsThreadCountInvariant) {
  // The determinism contract holds for the trace backend too: a batch over
  // recorded sweeps is bit-identical for every thread count.
  const auto ec = fast_config();
  const sim::LinkSimulator link(sim::office_20x20(), ec.link);

  auto trace = std::make_shared<TraceSweepSource>();
  std::vector<chronos::RangingRequest> requests;
  mathx::Rng record_rng(5);
  const auto rx = sim::make_laptop({12.0, 9.0}, 0.3, 99);
  for (std::uint64_t d = 0; d < 6; ++d) {
    const auto tx = sim::make_mobile({2.0 + 1.5 * static_cast<double>(d), 4.0},
                                     200 + d);
    trace->add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}),
                     link.simulate_sweep(tx, 0, rx, 0, record_rng));
    requests.push_back({{NodeId{200 + d}, 0}, {NodeId{99}, 0}});
  }

  const ChronosEngine engine(trace, ec);
  mathx::Rng rng_seq(31);
  const auto sequential = engine.measure_batch(requests, rng_seq,
                                               BatchOptions{1});
  for (const int threads : {2, 4}) {
    mathx::Rng rng_par(31);
    const auto parallel =
        engine.measure_batch(requests, rng_par, BatchOptions{threads});
    ASSERT_EQ(parallel.results.size(), sequential.results.size());
    for (std::size_t i = 0; i < parallel.results.size(); ++i) {
      expect_bitwise_equal(parallel.results[i], sequential.results[i]);
    }
  }
}

TEST(TraceSweepSource, RepeatedSweepsReplayDeterministically) {
  const auto ec = fast_config();
  const sim::LinkSimulator link(sim::office_20x20(), ec.link);
  const auto tx = sim::make_mobile({3.0, 3.0}, 31);
  const auto rx = sim::make_mobile({6.0, 6.0}, 32);
  const TraceKey key = TraceKey::of(ResolvedRequest{tx, 0, rx, 0});

  TraceSweepSource trace;
  mathx::Rng record_rng(9);
  for (int rep = 0; rep < 3; ++rep) {
    trace.add_sweep(key, link.simulate_sweep(tx, 0, rx, 0, record_rng));
  }
  EXPECT_EQ(trace.sweep_count(), 3u);

  // Same rng state -> same pick; the choice is a pure function of the
  // stream, never of hidden replay state.
  mathx::Rng rng_a(4);
  mathx::Rng rng_b(4);
  const auto a = trace.sweep_for(ResolvedRequest{tx, 0, rx, 0}, rng_a).value();
  const auto b = trace.sweep_for(ResolvedRequest{tx, 0, rx, 0}, rng_b).value();
  ASSERT_EQ(a.bands.size(), b.bands.size());
  EXPECT_EQ(a.bands[0][0].forward.values[0], b.bands[0][0].forward.values[0]);
}

TEST(TraceSweepSource, RejectsUnknownKeyAndInconsistentBands) {
  const auto ec = fast_config();
  const sim::LinkSimulator link(sim::office_20x20(), ec.link);
  const auto tx = sim::make_mobile({3.0, 3.0}, 41);
  const auto rx = sim::make_mobile({6.0, 6.0}, 42);

  TraceSweepSource trace;
  // No recorded sweeps: asking for the band plan is programmer error...
  EXPECT_THROW((void)trace.bands(), std::invalid_argument);

  mathx::Rng rng(2);
  trace.add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}),
                  link.simulate_sweep(tx, 0, rx, 0, rng));
  // ...but an unrecorded link in a request is recoverable data (v2).
  mathx::Rng query_rng(3);
  const auto missing =
      trace.sweep_for(ResolvedRequest{tx, 0, rx, 1}, query_rng);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), chronos::StatusCode::kUnknownLink);

  // A sweep over a different band plan must be rejected: kBandMismatch
  // through the Status API, std::invalid_argument through the legacy
  // throwing wrapper.
  sim::LinkSimConfig other_cfg = ec.link;
  other_cfg.bands.pop_back();
  const sim::LinkSimulator other_link(sim::office_20x20(), other_cfg);
  const auto mismatched = other_link.simulate_sweep(tx, 0, rx, 0, rng);
  EXPECT_EQ(trace
                .try_add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}),
                               mismatched)
                .code(),
            chronos::StatusCode::kBandMismatch);
  EXPECT_THROW(trace.add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}),
                               mismatched),
               std::invalid_argument);
}

TEST(Engine, SetCalibrationInstallsRecordedTable) {
  const auto ec = fast_config();
  ChronosEngine sim_engine(
      test::sim_nodes(sim::office_20x20(), ec.link,
                      {{NodeId{1}, sim::make_mobile({0.0, 0.0}, 1)},
                       {NodeId{2}, sim::make_mobile({1.0, 0.0}, 2)}}),
      ec);
  mathx::Rng cal_rng(15);
  ASSERT_TRUE(sim_engine.calibrate(NodeId{1}, NodeId{2}, cal_rng).ok());

  // Record one sweep and replay it on a trace engine that inherits the sim
  // engine's calibration table; both engines must estimate identically.
  const auto tx = sim::make_mobile({4.0, 4.0}, 51);
  const auto rx = sim::make_mobile({9.0, 5.0}, 52);
  mathx::Rng record_rng(8);
  const auto sweep =
      sim_engine.source()
          .sweep_for(ResolvedRequest{tx, 0, rx, 0}, record_rng)
          .value();

  auto trace = std::make_shared<TraceSweepSource>();
  trace->add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}), sweep);
  ChronosEngine trace_engine(trace, ec);
  trace_engine.set_calibration(sim_engine.calibration());

  mathx::Rng replay_rng(1);
  const auto replayed =
      trace_engine.measure({{NodeId{51}, 0}, {NodeId{52}, 0}}, replay_rng)
          .value();
  const auto direct = sim_engine.pipeline().estimate(sweep,
                                                     sim_engine.calibration());
  EXPECT_EQ(replayed.tof_s, direct.tof_s);
  EXPECT_EQ(replayed.distance_m, direct.distance_m);
}

TEST(Engine, BackendIdentityAndDerivedTraceDirectory) {
  // ChronosEngine::link() is gone (PR 5): source() + the registry cover
  // every former caller, for simulator and trace backends alike.
  const auto ec = fast_config();
  const sim::LinkSimulator link(sim::office_20x20(), ec.link);
  const auto tx = sim::make_mobile({3.0, 3.0}, 61);
  const auto rx = sim::make_laptop({6.0, 6.0}, 0.3, 62);
  const auto sim_source = test::sim_nodes(sim::office_20x20(), ec.link,
                                          {{NodeId{61}, tx}, {NodeId{62}, rx}});
  const ChronosEngine sim_engine(sim_source, ec);
  auto trace = std::make_shared<TraceSweepSource>();
  mathx::Rng rng(2);
  trace->add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 2}),
                   link.simulate_sweep(tx, 0, rx, 2, rng));
  const ChronosEngine trace_engine(trace, ec);
  EXPECT_EQ(trace_engine.source().backend_name(), "trace");
  EXPECT_EQ(sim_engine.source().backend_name(), "sim");

  // The trace backend's node directory is derived from its recorded keys.
  const auto& registry = trace_engine.registry();
  EXPECT_TRUE(registry.has_node(chronos::NodeId{61}));
  EXPECT_TRUE(registry.has_node(chronos::NodeId{62}));
  EXPECT_FALSE(registry.has_node(chronos::NodeId{63}));
  EXPECT_EQ(registry.antenna_count(chronos::NodeId{61}).value(), 1u);
  EXPECT_EQ(registry.antenna_count(chronos::NodeId{62}).value(), 3u);
  EXPECT_EQ(registry.nodes().size(), 2u);
  EXPECT_EQ(registry.antenna_count(chronos::NodeId{9}).status().code(),
            chronos::StatusCode::kUnknownNode);

  // The simulator's directory is writable: re-registering an id replaces
  // its device (a node that moved) instead of adding a second entry.
  EXPECT_EQ(sim_engine.registry().nodes().size(), 2u);
  sim_source->add_node(NodeId{61}, sim::make_mobile({5.0, 1.0}, 61));
  EXPECT_EQ(sim_engine.registry().nodes().size(), 2u);
  const auto moved = sim_engine.source().resolve({{NodeId{61}, 0},
                                                  {NodeId{62}, 0}});
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value().tx.antennas.front().x, 5.0);
  EXPECT_EQ(moved.value().tx.antennas.front().y, 1.0);
}

}  // namespace
}  // namespace chronos::core
