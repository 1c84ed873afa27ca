#include "drone/follow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/engine.hpp"
#include "mathx/contracts.hpp"
#include "mathx/stats.hpp"
#include "sim/environment.hpp"

namespace chronos::drone {

namespace {
// Node ids equal the devices' hardware seeds (their radio personalities).
constexpr chronos::NodeId kUserNode{31};
constexpr chronos::NodeId kDroneNode{32};
}  // namespace

FollowRunResult run_follow_simulation(const FollowSimConfig& config,
                                      mathx::Rng& rng) {
  CHRONOS_EXPECTS(config.measurement_rate_hz > 0.0, "rate must be positive");
  CHRONOS_EXPECTS(config.duration_s > 0.0, "duration must be positive");

  const core::EngineConfig ec;
  const auto source =
      std::make_shared<core::SimSweepSource>(sim::drone_room_6x5(), ec.link);
  source->add_node(kUserNode, sim::make_mobile({0.0, 0.0}, 31));
  source->add_node(kDroneNode, sim::make_mobile({1.0, 0.0}, 32));
  core::ChronosEngine engine(source, ec);
  const chronos::Status calibrated =
      engine.calibrate(kUserNode, kDroneNode, rng);
  CHRONOS_EXPECTS(calibrated.ok(), calibrated.to_string());

  const double dt = 1.0 / config.measurement_rate_hz;

  // The user walks; the drone starts at the target distance to its side.
  WaypointWalk walk(6.0, 5.0, config.user_waypoints, config.user_speed_mps,
                    rng);
  geom::Vec2 drone_pos =
      walk.position_at(0.0) + geom::Vec2{config.controller.target_distance_m, 0.0};

  RangeFilter filter(config.controller);
  FollowRunResult out;

  for (double t = 0.0; t < config.duration_s; t += dt) {
    const geom::Vec2 user_pos = walk.position_at(t);

    // Chronos measurement between the user's device and the drone's radio,
    // each re-registered (replacing its previous entry) where it now is.
    source->add_node(kUserNode, sim::make_mobile(user_pos, 31));
    source->add_node(kDroneNode, sim::make_mobile(drone_pos, 32));
    const core::RangingResult range =
        engine.measure({{kUserNode, 0}, {kDroneNode, 0}}, rng).value();

    const auto filtered = filter.push(range.distance_m);
    const double measured =
        filtered.value_or(config.controller.target_distance_m);

    // Camera-facing heading comes from the compasses (§12.4); range
    // control acts along the drone->user direction.
    const geom::Vec2 to_user = (user_pos - drone_pos).normalized();
    const double step = control_step(config.controller, measured);
    const double max_move = config.drone_max_speed_mps * dt;
    const double move = std::clamp(step, -max_move, max_move);
    drone_pos += to_user * move;

    FollowSample s;
    s.t_s = t;
    s.user = user_pos;
    s.drone = drone_pos;
    s.true_distance_m = geom::distance(user_pos, drone_pos);
    s.measured_distance_m = measured;
    out.trace.push_back(s);

    // Skip the convergence transient (first two seconds) in the metric.
    if (t >= 2.0) {
      out.distance_deviation_m.push_back(
          std::abs(s.true_distance_m - config.controller.target_distance_m));
    }
  }

  if (!out.distance_deviation_m.empty()) {
    out.rms_deviation_m = mathx::rms(out.distance_deviation_m);
  }
  return out;
}

}  // namespace chronos::drone
