#include "core/api.hpp"

#include <set>
#include <utility>

#include "core/engine.hpp"
#include "core/session.hpp"
#include "core/sweep_source.hpp"
#include "mathx/contracts.hpp"
#include "sim/environment.hpp"
#include "sim/radio.hpp"

namespace chronos {

// ------------------------------------------------------------ NodeRegistry

Status NodeRegistry::validate(const RangingRequest& request) const {
  auto check = [this](const AntennaRef& ref,
                      const char* endpoint) -> Status {
    const auto count = antenna_count(ref.node);
    if (!count.ok()) return count.status();
    if (ref.antenna >= count.value()) {
      return {StatusCode::kAntennaOutOfRange,
              std::string(endpoint) + " node " +
                  std::to_string(ref.node.value) + " has " +
                  std::to_string(count.value()) +
                  " antenna(s); no antenna " + std::to_string(ref.antenna)};
    }
    return Status::Ok();
  };
  if (auto s = check(request.tx, "tx"); !s.ok()) return s;
  return check(request.rx, "rx");
}

// ---------------------------------------------------- RangingSession facade

struct RangingSession::Impl {
  core::RangingSession session;
};

RangingSession::RangingSession() = default;
RangingSession::RangingSession(RangingSession&&) noexcept = default;
RangingSession& RangingSession::operator=(RangingSession&&) noexcept = default;
RangingSession::~RangingSession() = default;

bool RangingSession::valid() const {
  return impl_ != nullptr && impl_->session.valid();
}

Result<std::uint64_t> RangingSession::try_submit(
    const RangingRequest& request) {
  CHRONOS_EXPECTS(impl_ != nullptr, "try_submit() on an invalid session");
  return impl_->session.try_submit(request);
}

Result<std::uint64_t> RangingSession::submit(const RangingRequest& request) {
  CHRONOS_EXPECTS(impl_ != nullptr, "submit() on an invalid session");
  return impl_->session.submit(request);
}

std::size_t RangingSession::queue_depth() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "queue_depth() on an invalid session");
  return impl_->session.queue_depth();
}

std::size_t RangingSession::submitted() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "submitted() on an invalid session");
  return impl_->session.submitted();
}

std::size_t RangingSession::in_flight() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "in_flight() on an invalid session");
  return impl_->session.in_flight();
}

bool RangingSession::next_ready() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "next_ready() on an invalid session");
  return impl_->session.next_ready();
}

core::RangingResult RangingSession::next() {
  CHRONOS_EXPECTS(impl_ != nullptr, "next() on an invalid session");
  return impl_->session.next();
}

std::vector<core::RangingResult> RangingSession::drain() {
  CHRONOS_EXPECTS(impl_ != nullptr, "drain() on an invalid session");
  return impl_->session.drain();
}

// ------------------------------------------------------------ Engine facade

struct Engine::Impl {
  std::shared_ptr<core::SweepSource> source;  ///< non-const master reference
  std::unique_ptr<core::ChronosEngine> engine;
};

namespace {

core::EngineConfig to_engine_config(const EngineOptions& options) {
  core::EngineConfig config;
  config.ranging = options.ranging;
  config.calibration_sweeps = options.calibration_sweeps;
  config.calibration_distance_m = options.calibration_distance_m;
  return config;
}

Status check_node_spec(const NodeSpec& spec) {
  if (spec.antennas.empty()) {
    return {StatusCode::kInvalidArgument,
            "node " + std::to_string(spec.id.value) +
                " needs at least one antenna position"};
  }
  return Status::Ok();
}

sim::Device to_device(const NodeSpec& spec) {
  sim::Device device;
  device.antennas = spec.antennas;
  device.hardware_seed =
      spec.personality != 0 ? spec.personality : spec.id.value;
  return device;
}

sim::Environment named_environment(SimEnvironment environment) {
  switch (environment) {
    case SimEnvironment::kOffice20x20: return sim::office_20x20();
    case SimEnvironment::kAnechoic: return sim::anechoic();
    case SimEnvironment::kDroneRoom6x5: return sim::drone_room_6x5();
  }
  CHRONOS_EXPECTS(false, "unknown SimEnvironment");
}

}  // namespace

Engine::Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;
Engine::~Engine() = default;

bool Engine::valid() const { return impl_ != nullptr; }

Engine Engine::adopt(std::shared_ptr<core::SweepSource> source,
                     const EngineOptions& options) {
  CHRONOS_EXPECTS(source != nullptr, "Engine::adopt needs a backend");
  Engine engine;
  engine.impl_ = std::make_unique<Impl>();
  engine.impl_->source = source;
  engine.impl_->engine = std::make_unique<core::ChronosEngine>(
      std::move(source), to_engine_config(options));
  return engine;
}

Result<Engine> Engine::create_simulated(const SimDeployment& deployment,
                                        const EngineOptions& options) {
  auto source = std::make_shared<core::SimSweepSource>(
      named_environment(deployment.environment), sim::LinkSimConfig{});
  std::set<std::uint64_t> seen;
  for (const auto& spec : deployment.nodes) {
    if (auto s = check_node_spec(spec); !s.ok()) return s;
    if (!seen.insert(spec.id.value).second) {
      return Status{StatusCode::kInvalidArgument,
                    "duplicate node id " + std::to_string(spec.id.value)};
    }
    source->add_node(spec.id, to_device(spec));
  }
  return adopt(std::move(source), options);
}

Result<Engine> Engine::create_replay(const TraceDeployment& deployment,
                                     const EngineOptions& options) {
  if (deployment.links.empty()) {
    return Status{StatusCode::kInvalidArgument,
                  "a trace deployment needs at least one recorded link"};
  }
  auto source = std::make_shared<core::TraceSweepSource>();
  for (const auto& link : deployment.links) {
    const auto status =
        source->try_add_sweep_file(core::TraceKey::of(link.link), link.path);
    if (!status.ok()) {
      return Status{status.code(),
                    link.path + ": " + status.message()};
    }
  }
  return adopt(std::move(source), options);
}

const NodeRegistry& Engine::registry() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "registry() on an invalid engine");
  return impl_->engine->registry();
}

Status Engine::add_node(const NodeSpec& spec) {
  CHRONOS_EXPECTS(impl_ != nullptr, "add_node() on an invalid engine");
  if (auto s = check_node_spec(spec); !s.ok()) return s;
  auto* sim_source =
      dynamic_cast<core::SimSweepSource*>(impl_->source.get());
  if (sim_source == nullptr) {
    return {StatusCode::kUnavailable,
            "backend '" + impl_->engine->source().backend_name() +
                "' has a fixed node directory"};
  }
  sim_source->add_node(spec.id, to_device(spec));
  return Status::Ok();
}

Status Engine::calibrate(NodeId tx, NodeId rx, mathx::Rng& rng) {
  CHRONOS_EXPECTS(impl_ != nullptr, "calibrate() on an invalid engine");
  return impl_->engine->calibrate(tx, rx, rng);
}

void Engine::set_calibration(core::CalibrationTable calibration) {
  CHRONOS_EXPECTS(impl_ != nullptr, "set_calibration() on an invalid engine");
  impl_->engine->set_calibration(std::move(calibration));
}

const core::CalibrationTable& Engine::calibration() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "calibration() on an invalid engine");
  return impl_->engine->calibration();
}

Result<core::RangingResult> Engine::measure(const RangingRequest& request,
                                            mathx::Rng& rng) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "measure() on an invalid engine");
  return impl_->engine->measure(request, rng);
}

Result<phy::SweepMeasurement> Engine::capture_sweep(
    const RangingRequest& request, mathx::Rng& rng) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "capture_sweep() on an invalid engine");
  return impl_->engine->capture_sweep(request, rng);
}

Result<core::RangingResult> Engine::estimate(
    const phy::SweepMeasurement& sweep) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "estimate() on an invalid engine");
  return impl_->engine->estimate(sweep);
}

BatchResult Engine::measure_batch(std::span<const RangingRequest> requests,
                                  mathx::Rng& rng,
                                  const BatchOptions& options) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "measure_batch() on an invalid engine");
  return impl_->engine->measure_batch(requests, rng, options);
}

RangingSession Engine::open_session(mathx::Rng& rng,
                                    const SessionOptions& options) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "open_session() on an invalid engine");
  RangingSession session;
  session.impl_ = std::make_unique<RangingSession::Impl>();
  session.impl_->session = impl_->engine->open_session(rng, options);
  return session;
}

Result<LocateOutcome> Engine::locate(NodeId tx, NodeId rx, mathx::Rng& rng,
                                     const std::optional<geom::Vec2>& hint,
                                     const BatchOptions& options) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "locate() on an invalid engine");
  return impl_->engine->locate(tx, rx, rng, hint, options);
}

std::string Engine::backend_name() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "backend_name() on an invalid engine");
  return impl_->engine->source().backend_name();
}

std::size_t Engine::session_threads() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "session_threads() on an invalid engine");
  return impl_->engine->session_threads();
}

core::ChronosEngine& Engine::engine() {
  CHRONOS_EXPECTS(impl_ != nullptr, "engine() on an invalid engine");
  return *impl_->engine;
}

const core::ChronosEngine& Engine::engine() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "engine() on an invalid engine");
  return *impl_->engine;
}

}  // namespace chronos
