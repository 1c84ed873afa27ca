// Cross-module integration and property tests: the invariants that make
// Chronos work, checked end-to-end through the real pipeline rather than
// unit by unit.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "mathx/constants.hpp"
#include "mathx/stats.hpp"
#include "sim/scenario.hpp"
#include "sim_nodes.hpp"

namespace chronos {
namespace {

// Property: sweeping distance, the recovered ToF scales linearly (no
// ambiguity wraps, no systematic drift) across the gated pipeline.
class DistanceLinearity : public ::testing::TestWithParam<double> {};

TEST_P(DistanceLinearity, TofTracksDistance) {
  const double d = GetParam();
  core::EngineConfig ec;
  core::ChronosEngine eng(
      test::sim_nodes(sim::anechoic(), ec.link,
                      {{NodeId{1}, sim::make_mobile({0.0, 0.0}, 11)},
                       {NodeId{2}, sim::make_mobile({1.0, 0.0}, 22)},
                       {NodeId{3}, sim::make_mobile({d, 0.0}, 22)}}),
      ec);
  mathx::Rng rng(13);
  ASSERT_TRUE(eng.calibrate(NodeId{1}, NodeId{2}, rng).ok());
  const auto r = eng.measure({{NodeId{1}, 0}, {NodeId{3}, 0}}, rng).value();
  ASSERT_TRUE(r.peak_found);
  EXPECT_NEAR(r.distance_m, d, 0.05 + 0.01 * d);
}

INSTANTIATE_TEST_SUITE_P(Distances, DistanceLinearity,
                         ::testing::Values(1.0, 2.5, 4.0, 6.5, 9.0, 12.0,
                                           15.0, 18.0));

// Property: reciprocity — swapping transmitter and receiver roles yields
// the same distance (each direction is measured anyway; roles only change
// who initiates).
TEST(Integration, RoleSwapGivesSameDistance) {
  core::EngineConfig ec;
  const NodeId a{1}, b{2};
  core::ChronosEngine eng(
      test::sim_nodes(sim::office_20x20(), ec.link,
                      {{a, sim::make_mobile({3.0, 4.0}, 11)},
                       {b, sim::make_mobile({8.0, 9.0}, 22)}}),
      ec);
  mathx::Rng rng(17);
  ASSERT_TRUE(eng.calibrate(a, b, rng).ok());
  const auto ab = eng.measure({{a, 0}, {b, 0}}, rng).value();
  const auto ba = eng.measure({{b, 0}, {a, 0}}, rng).value();
  ASSERT_TRUE(ab.peak_found);
  ASSERT_TRUE(ba.peak_found);
  EXPECT_NEAR(ab.distance_m, ba.distance_m, 0.4);
}

// Property: repeated measurements of a static link are consistent — the
// spread across sweeps is far below the absolute accuracy requirement.
TEST(Integration, RepeatedMeasurementsAreStable) {
  core::EngineConfig ec;
  const NodeId tx{1}, rx{2};
  core::ChronosEngine eng(
      test::sim_nodes(sim::office_20x20(), ec.link,
                      {{tx, sim::make_mobile({4.0, 3.0}, 11)},
                       {rx, sim::make_mobile({9.0, 7.0}, 22)}}),
      ec);
  mathx::Rng rng(19);
  ASSERT_TRUE(eng.calibrate(tx, rx, rng).ok());
  std::vector<double> estimates;
  for (int i = 0; i < 8; ++i) {
    estimates.push_back(
        eng.measure({{tx, 0}, {rx, 0}}, rng).value().distance_m);
  }
  EXPECT_LT(mathx::stddev(estimates), 0.15);
}

// Property: the ToF estimate never reports the detection delay — the whole
// point of §5. ToA (slope) and ToF must differ by ~the detection pipeline.
TEST(Integration, TofIsFreeOfDetectionDelay) {
  core::EngineConfig ec;
  const NodeId tx{1}, rx{2};
  core::ChronosEngine eng(
      test::sim_nodes(sim::office_20x20(), ec.link,
                      {{tx, sim::make_mobile({3.0, 3.0}, 11)},
                       {rx, sim::make_mobile({7.0, 6.0}, 22)}}),
      ec);
  mathx::Rng rng(23);
  ASSERT_TRUE(eng.calibrate(tx, rx, rng).ok());
  const auto r = eng.measure({{tx, 0}, {rx, 0}}, rng).value();
  ASSERT_TRUE(r.peak_found);
  EXPECT_LT(r.tof_s, 60e-9);        // a real indoor ToF
  EXPECT_GT(r.toa_s, 150e-9);       // raw arrival includes ~180 ns delay
  EXPECT_GT(r.detection_delay_s, 100e-9);
}

// Property: localization error grows when the receive baseline shrinks
// (paper §10) — checked end-to-end on identical placements.
TEST(Integration, SmallerBaselineIsWorse) {
  const auto scen = sim::office_testbed(42);
  double err_small_total = 0.0, err_large_total = 0.0;
  for (int trial = 0; trial < 6; ++trial) {
    mathx::Rng rng(100 + trial);
    const auto pl = scen.sample_pair_los(rng, 2.0, 10.0);
    for (const double sep : {0.15, 1.2}) {
      core::EngineConfig ec;
      core::ChronosEngine eng(
          test::sim_nodes(scen.environment(), ec.link,
                          {{NodeId{1}, sim::make_mobile({0.0, 0.0}, 11)},
                           {NodeId{2}, sim::make_laptop({1.5, 0.0}, sep, 22)},
                           {NodeId{3}, sim::make_mobile(pl.tx, 11)},
                           {NodeId{4}, sim::make_laptop(pl.rx, sep, 22)}}),
          ec);
      mathx::Rng cal_rng(5);
      ASSERT_TRUE(eng.calibrate(NodeId{1}, NodeId{2}, cal_rng).ok());
      const auto out = eng.locate(NodeId{3}, NodeId{4}, rng).value();
      if (!out.result.valid) continue;
      const double err = geom::distance(out.result.position, pl.tx);
      (sep < 0.5 ? err_small_total : err_large_total) += err;
    }
  }
  EXPECT_GT(err_small_total, err_large_total);
}

// Property: every profile the pipeline produces on real workloads is
// sparse in the paper's sense (a handful of dominant peaks, not a smear).
TEST(Integration, ProfilesStaySparse) {
  const auto scen = sim::office_testbed(42);
  core::EngineConfig ec;
  const auto source =
      test::sim_nodes(scen.environment(), ec.link,
                      {{NodeId{1}, sim::make_mobile({0.0, 0.0}, 11)},
                       {NodeId{2}, sim::make_mobile({1.0, 0.0}, 22)}});
  core::ChronosEngine eng(source, ec);
  mathx::Rng rng(29);
  ASSERT_TRUE(eng.calibrate(NodeId{1}, NodeId{2}, rng).ok());
  for (int i = 0; i < 6; ++i) {
    const auto pl = scen.sample_pair(rng, 1.0, 12.0);
    // The calibrated cards at this placement (replacing the last one).
    source->add_node(NodeId{3}, sim::make_mobile(pl.tx, 11));
    source->add_node(NodeId{4}, sim::make_mobile(pl.rx, 22));
    const auto r = eng.measure({{NodeId{3}, 0}, {NodeId{4}, 0}}, rng).value();
    const auto dominant = core::dominant_peak_count(r.profile, 0.2);
    EXPECT_GE(dominant, 1u);
    EXPECT_LE(dominant, 16u);
  }
}

}  // namespace
}  // namespace chronos
