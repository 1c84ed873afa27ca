#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "core/engine.hpp"
#include "core/localization.hpp"
#include "core/ranging.hpp"
#include "sim/link.hpp"
#include "sim/scenario.hpp"
#include "sim_nodes.hpp"

namespace chronos::core {
namespace {

sim::LinkSimConfig ideal_link() {
  sim::LinkSimConfig c;
  c.enable_noise = false;
  c.enable_detection_delay = false;
  c.enable_cfo = false;
  c.enable_lo_phase = false;
  c.enable_chain_effects = false;
  c.enable_quirk = false;
  c.exchanges_per_band = 1;
  c.propagation.include_scatterers = false;
  return c;
}

TEST(Ranging, IdealAnechoicIsExact) {
  sim::LinkSimulator link(sim::anechoic(), ideal_link());
  RangingConfig rc;
  rc.combining.quirk_fix = false;
  RangingPipeline pipe(link.bands(), rc);
  mathx::Rng rng(1);
  const auto sweep = link.simulate_sweep(sim::make_mobile({0.0, 0.0}), 0,
                                         sim::make_mobile({6.0, 0.0}), 0, rng);
  const auto r = pipe.estimate(sweep);
  ASSERT_TRUE(r.peak_found);
  EXPECT_NEAR(r.distance_m, 6.0, 1e-3);
  EXPECT_NEAR(r.tof_s, 6.0 / 299792458.0, 1e-14 + 3e-12);
}

TEST(Ranging, IdealOfficeMultipathFindsDirectPath) {
  sim::LinkSimulator link(sim::office_20x20(), ideal_link());
  RangingConfig rc;
  rc.combining.quirk_fix = false;
  RangingPipeline pipe(link.bands(), rc);
  mathx::Rng rng(1);
  const auto sweep = link.simulate_sweep(sim::make_mobile({3.0, 3.0}), 0,
                                         sim::make_mobile({8.0, 6.0}), 0, rng);
  const auto r = pipe.estimate(sweep);
  ASSERT_TRUE(r.peak_found);
  EXPECT_NEAR(r.distance_m, std::hypot(5.0, 3.0), 0.05);
}

TEST(Ranging, FullImpairmentsWithCalibrationInOffice) {
  EngineConfig ec;
  ChronosEngine eng(
      test::sim_nodes(sim::office_20x20(), ec.link,
                      {{NodeId{1}, sim::make_mobile({0.0, 0.0}, 11)},
                       {NodeId{2}, sim::make_mobile({1.0, 0.0}, 22)},
                       {NodeId{3}, sim::make_mobile({3.0, 3.0}, 11)},
                       {NodeId{4}, sim::make_mobile({8.0, 6.0}, 22)}}),
      ec);
  mathx::Rng rng(7);
  ASSERT_TRUE(eng.calibrate(NodeId{1}, NodeId{2}, rng).ok());

  const auto r = eng.measure({{NodeId{3}, 0}, {NodeId{4}, 0}}, rng).value();
  ASSERT_TRUE(r.peak_found);
  EXPECT_NEAR(r.distance_m, std::hypot(5.0, 3.0), 0.5);
  // Detection delay estimate lands in the Fig 7c ballpark.
  EXPECT_GT(r.detection_delay_s, 120e-9);
  EXPECT_LT(r.detection_delay_s, 320e-9);
}

TEST(Ranging, CandidatesAuditTrailIsPopulated) {
  EngineConfig ec;
  ChronosEngine eng(
      test::sim_nodes(sim::office_20x20(), ec.link,
                      {{NodeId{1}, sim::make_mobile({0.0, 0.0}, 11)},
                       {NodeId{2}, sim::make_mobile({1.0, 0.0}, 22)},
                       {NodeId{3}, sim::make_mobile({3.0, 3.0}, 11)},
                       {NodeId{4}, sim::make_mobile({7.0, 5.0}, 22)}}),
      ec);
  mathx::Rng rng(7);
  ASSERT_TRUE(eng.calibrate(NodeId{1}, NodeId{2}, rng).ok());
  const auto r = eng.measure({{NodeId{3}, 0}, {NodeId{4}, 0}}, rng).value();
  ASSERT_TRUE(r.peak_found);
  ASSERT_FALSE(r.candidates.empty());
  std::size_t accepted = 0;
  for (const auto& c : r.candidates) accepted += c.accepted ? 1 : 0;
  EXPECT_EQ(accepted, 1u);
}

TEST(Ranging, UncalibratedHardwareBiasesDistance) {
  sim::LinkSimConfig link_cfg = ideal_link();
  link_cfg.enable_chain_effects = true;  // hardware delay present
  sim::LinkSimulator link(sim::anechoic(), link_cfg);
  RangingConfig rc;
  rc.combining.quirk_fix = false;
  rc.use_toa_gate = false;
  RangingPipeline pipe(link.bands(), rc);
  mathx::Rng rng(1);
  const auto sweep = link.simulate_sweep(sim::make_mobile({0.0, 0.0}), 0,
                                         sim::make_mobile({6.0, 0.0}), 0, rng);
  const auto r = pipe.estimate(sweep);
  ASSERT_TRUE(r.peak_found);
  // 24 ns of chain delay = ~7.2 m of bias without calibration.
  EXPECT_GT(r.distance_m, 9.0);
}

TEST(Ranging, CalibrationRemovesHardwareBias) {
  sim::LinkSimConfig link_cfg = ideal_link();
  link_cfg.enable_chain_effects = true;
  EngineConfig ec;
  ec.link = link_cfg;
  ec.ranging.combining.quirk_fix = false;
  ec.ranging.use_toa_gate = false;
  ChronosEngine eng(
      test::sim_nodes(sim::anechoic(), ec.link,
                      {{NodeId{1}, sim::make_mobile({0.0, 0.0}, 11)},
                       {NodeId{2}, sim::make_mobile({1.0, 0.0}, 22)},
                       {NodeId{3}, sim::make_mobile({6.0, 0.0}, 22)}}),
      ec);
  mathx::Rng rng(2);
  ASSERT_TRUE(eng.calibrate(NodeId{1}, NodeId{2}, rng).ok());
  const auto r = eng.measure({{NodeId{1}, 0}, {NodeId{3}, 0}}, rng).value();
  EXPECT_NEAR(r.distance_m, 6.0, 0.05);
}

TEST(Ranging, MismatchedSweepRejectedByGate) {
  sim::LinkSimulator link(sim::anechoic(), ideal_link());
  RangingPipeline pipe(link.bands(), {});
  phy::SweepMeasurement wrong;
  wrong.bands.resize(3);
  // The structural screen (always on) turns what used to be a thrown
  // invalid_argument into a typed per-request rejection: one truncated
  // sweep in a batch must not abort its neighbours.
  const auto result = pipe.estimate(wrong);
  EXPECT_EQ(result.status.code(), chronos::StatusCode::kMalformedSweep);
  EXPECT_FALSE(result.peak_found);
}

// --- localization -----------------------------------------------------

TEST(Localization, OutlierRejectionKeepsConsistentSet) {
  const std::vector<geom::Vec2> anchors = {
      {0.0, 0.0}, {0.3, 0.0}, {0.15, -0.12}};
  const std::vector<double> good = {5.0, 4.9, 5.05};
  const auto used = reject_outliers(anchors, good, 0.35);
  EXPECT_EQ(std::count(used.begin(), used.end(), true), 3);
}

TEST(Localization, OutlierRejectionDropsGeometryViolator) {
  const std::vector<geom::Vec2> anchors = {
      {0.0, 0.0}, {0.3, 0.0}, {0.15, -0.12}};
  // Third distance differs by 3 m from the others across a 15 cm baseline.
  const std::vector<double> bad = {5.0, 4.95, 8.0};
  const auto used = reject_outliers(anchors, bad, 0.35);
  EXPECT_TRUE(used[0]);
  EXPECT_TRUE(used[1]);
  EXPECT_FALSE(used[2]);
}

TEST(Localization, ExactThreeAnchorPosition) {
  const std::vector<geom::Vec2> anchors = {
      {0.0, 0.0}, {1.0, 0.0}, {0.5, -0.4}};
  const geom::Vec2 truth{4.0, 6.0};
  std::vector<double> d;
  for (const auto& a : anchors) d.push_back(geom::distance(a, truth));
  const auto r = localize(anchors, d);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.used_count, 3u);
  EXPECT_LT(geom::distance(r.position, truth), 1e-5);
}

TEST(Localization, TwoAnchorsUseHintForMirrorDisambiguation) {
  const std::vector<geom::Vec2> anchors = {{0.0, 0.0}, {1.0, 0.0}};
  const geom::Vec2 truth{0.5, 3.0};
  std::vector<double> d;
  for (const auto& a : anchors) d.push_back(geom::distance(a, truth));
  const auto with_hint = localize(anchors, d, {}, geom::Vec2{0.4, 2.0});
  EXPECT_LT(geom::distance(with_hint.position, truth), 1e-5);
  const auto wrong_hint = localize(anchors, d, {}, geom::Vec2{0.4, -2.0});
  EXPECT_LT(geom::distance(wrong_hint.position, geom::Vec2{0.5, -3.0}), 1e-5);
}

TEST(Localization, RejectsDegenerateInput) {
  const std::vector<geom::Vec2> one_anchor = {{0.0, 0.0}};
  const std::vector<double> one = {2.0};
  EXPECT_THROW((void)localize(one_anchor, one), std::invalid_argument);
  const std::vector<geom::Vec2> anchors = {{0.0, 0.0}, {1.0, 0.0}};
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW((void)localize(anchors, negative), std::invalid_argument);
}

TEST(Localization, EngineLocateEndToEnd) {
  const geom::Vec2 truth{4.0, 4.0};
  EngineConfig ec;
  ChronosEngine eng(
      test::sim_nodes(sim::office_20x20(), ec.link,
                      {{NodeId{1}, sim::make_mobile({0.0, 0.0}, 11)},
                       {NodeId{2}, sim::make_laptop({1.0, 0.0}, 0.3, 22)},
                       {NodeId{3}, sim::make_mobile(truth, 11)},
                       {NodeId{4}, sim::make_laptop({9.0, 7.0}, 0.3, 22)}}),
      ec);
  mathx::Rng rng(21);
  ASSERT_TRUE(eng.calibrate(NodeId{1}, NodeId{2}, rng).ok());
  const auto out = eng.locate(NodeId{3}, NodeId{4}, rng).value();
  ASSERT_TRUE(out.result.valid);
  EXPECT_EQ(out.antenna_distances_m.size(), 3u);
  EXPECT_LT(geom::distance(out.result.position, truth), 2.5);
}

TEST(Localization, EngineLocateNeedsMultiAntennaReceiver) {
  EngineConfig ec;
  const ChronosEngine eng(
      test::sim_nodes(sim::anechoic(), ec.link,
                      {{NodeId{1}, sim::make_mobile({0.0, 0.0})},
                       {NodeId{2}, sim::make_mobile({1.0, 0.0})}}),
      ec);
  mathx::Rng rng(1);
  chronos::Result<LocateOutcome> out{
      chronos::Status{chronos::StatusCode::kInternal, "unset"}};
  EXPECT_NO_THROW(out = eng.locate(NodeId{1}, NodeId{2}, rng));
  EXPECT_EQ(out.status().code(), chronos::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace chronos::core
