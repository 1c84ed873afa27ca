// Shared test fixture: a simulator backend with its nodes registered up
// front, so an id-based engine is one constructor call away:
//
//   EngineConfig ec;
//   ChronosEngine eng(sim_nodes(sim::anechoic(), ec.link,
//                               {{NodeId{1}, sim::make_mobile({0, 0}, 11)},
//                                {NodeId{2}, sim::make_mobile({1, 0}, 22)}}),
//                     ec);
//
// Pass the engine's own `ec.link` so calibrate()'s anechoic fixture and the
// field measurements share one link model.
#pragma once

#include <initializer_list>
#include <memory>
#include <utility>

#include "core/sweep_source.hpp"
#include "sim/environment.hpp"
#include "sim/radio.hpp"

namespace chronos::test {

inline std::shared_ptr<core::SimSweepSource> sim_nodes(
    sim::Environment env, const sim::LinkSimConfig& link,
    std::initializer_list<std::pair<NodeId, sim::Device>> nodes = {}) {
  auto source = std::make_shared<core::SimSweepSource>(std::move(env), link);
  for (const auto& [id, device] : nodes) source->add_node(id, device);
  return source;
}

}  // namespace chronos::test
