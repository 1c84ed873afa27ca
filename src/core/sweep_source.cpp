#include "core/sweep_source.hpp"

#include <algorithm>
#include <utility>

#include "mathx/contracts.hpp"
#include "phy/csi_io.hpp"

namespace chronos::core {

namespace {

/// The band sequence a sweep covers, in sweep order. Assumes a validated
/// sweep (>= 1 capture per band).
std::vector<phy::WifiBand> bands_of(const phy::SweepMeasurement& sweep) {
  std::vector<phy::WifiBand> bands;
  bands.reserve(sweep.bands.size());
  for (const auto& captures : sweep.bands) {
    bands.push_back(captures.front().forward.band);
  }
  return bands;
}

chronos::Status unknown_node(chronos::NodeId id) {
  return {chronos::StatusCode::kUnknownNode,
          "no node with id " + std::to_string(id.value)};
}

chronos::Status antenna_out_of_range(
    const chronos::AntennaRef& ref, std::size_t arity) {
  return {chronos::StatusCode::kAntennaOutOfRange,
          "node " + std::to_string(ref.node.value) + " has " +
              std::to_string(arity) + " antenna(s); no antenna " +
              std::to_string(ref.antenna)};
}

}  // namespace

// ---------------------------------------------------------------- simulator

SimSweepSource::SimSweepSource(sim::Environment env, sim::LinkSimConfig config)
    : link_(std::move(env), std::move(config)) {}

SimSweepSource::SimSweepSource(sim::LinkSimulator link)
    : link_(std::move(link)) {}

void SimSweepSource::add_node(chronos::NodeId id, sim::Device device) {
  CHRONOS_EXPECTS(!device.antennas.empty(),
                  "a registered node needs at least one antenna");
  chronos::MutexLock lock(nodes_mutex_);
  nodes_[id] = std::move(device);
}

bool SimSweepSource::has_node(chronos::NodeId id) const {
  chronos::MutexLock lock(nodes_mutex_);
  return nodes_.contains(id);
}

chronos::Result<std::size_t> SimSweepSource::antenna_count(
    chronos::NodeId id) const {
  chronos::MutexLock lock(nodes_mutex_);
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return unknown_node(id);
  return it->second.antennas.size();
}

std::vector<chronos::NodeId> SimSweepSource::nodes() const {
  chronos::MutexLock lock(nodes_mutex_);
  std::vector<chronos::NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, device] : nodes_) out.push_back(id);
  return out;
}

chronos::Result<ResolvedRequest> SimSweepSource::resolve(
    const chronos::RangingRequest& request) const {
  // Failure precedence: tx endpoint fully, then rx — matching
  // NodeRegistry::validate and TraceSweepSource::resolve, so a client
  // that pre-validates sees the same code the measurement path reports.
  chronos::MutexLock lock(nodes_mutex_);
  const auto tx = nodes_.find(request.tx.node);
  if (tx == nodes_.end()) return unknown_node(request.tx.node);
  if (request.tx.antenna >= tx->second.antennas.size()) {
    return antenna_out_of_range(request.tx, tx->second.antennas.size());
  }
  const auto rx = nodes_.find(request.rx.node);
  if (rx == nodes_.end()) return unknown_node(request.rx.node);
  if (request.rx.antenna >= rx->second.antennas.size()) {
    return antenna_out_of_range(request.rx, rx->second.antennas.size());
  }
  return ResolvedRequest{tx->second, request.tx.antenna, rx->second,
                         request.rx.antenna};
}

chronos::Result<phy::SweepMeasurement> SimSweepSource::sweep_for(
    const ResolvedRequest& req, mathx::Rng& rng) const {
  // Bounds are re-checked here (not only in resolve) because resolved
  // requests can also be built directly, e.g. for
  // RangingSession::try_submit_stream, without passing through resolve().
  if (req.tx_antenna >= req.tx.antennas.size()) {
    return antenna_out_of_range({{req.tx.hardware_seed}, req.tx_antenna},
                                req.tx.antennas.size());
  }
  if (req.rx_antenna >= req.rx.antennas.size()) {
    return antenna_out_of_range({{req.rx.hardware_seed}, req.rx_antenna},
                                req.rx.antennas.size());
  }
  return link_.simulate_sweep(req.tx, req.tx_antenna, req.rx, req.rx_antenna,
                              rng);
}

const std::vector<phy::WifiBand>& SimSweepSource::bands() const {
  return link_.bands();
}

// -------------------------------------------------------------------- trace

TraceKey TraceKey::of(const ResolvedRequest& req) {
  return {req.tx.hardware_seed, req.tx_antenna, req.rx.hardware_seed,
          req.rx_antenna};
}

TraceKey TraceKey::of(const chronos::RangingRequest& req) {
  return {req.tx.node.value, req.tx.antenna, req.rx.node.value,
          req.rx.antenna};
}

chronos::Status TraceSweepSource::try_add_sweep(const TraceKey& key,
                                                phy::SweepMeasurement sweep) {
  try {
    phy::validate(sweep);
  } catch (const std::invalid_argument& e) {
    return {chronos::StatusCode::kMalformedSweep, e.what()};
  }
  auto sweep_bands = bands_of(sweep);
  if (bands_.empty()) {
    bands_ = std::move(sweep_bands);
  } else {
    if (sweep_bands.size() != bands_.size()) {
      return {chronos::StatusCode::kBandMismatch,
              "trace sweep covers " + std::to_string(sweep_bands.size()) +
                  " bands; the recorded plan has " +
                  std::to_string(bands_.size())};
    }
    for (std::size_t i = 0; i < bands_.size(); ++i) {
      // Full band identity, not just the channel number: a converter with a
      // wrong frequency map must be rejected here, not produce a silently
      // wrong phase-to-delay mapping downstream.
      if (sweep_bands[i].channel != bands_[i].channel ||
          sweep_bands[i].center_freq_hz != bands_[i].center_freq_hz ||
          sweep_bands[i].group != bands_[i].group) {
        return {chronos::StatusCode::kBandMismatch,
                "trace sweep band " + std::to_string(i) +
                    " disagrees with the recorded plan (channel " +
                    std::to_string(sweep_bands[i].channel) + " vs " +
                    std::to_string(bands_[i].channel) + ")"};
      }
    }
  }
  auto bump_arity = [this](std::uint64_t node, std::size_t antenna) {
    auto& arity = node_arity_[node];
    arity = std::max(arity, antenna + 1);
  };
  bump_arity(key.tx_device, key.tx_antenna);
  bump_arity(key.rx_device, key.rx_antenna);
  sweeps_[key].push_back(std::move(sweep));
  return chronos::Status::Ok();
}

chronos::Status TraceSweepSource::try_add_sweep_file(const TraceKey& key,
                                                     const std::string& path) {
  phy::SweepMeasurement sweep;
  try {
    sweep = phy::load_sweep(path);
  } catch (const std::invalid_argument& e) {
    return {chronos::StatusCode::kMalformedSweep, e.what()};
  }
  return try_add_sweep(key, std::move(sweep));
}

void TraceSweepSource::add_sweep(const TraceKey& key,
                                 phy::SweepMeasurement sweep) {
  const auto status = try_add_sweep(key, std::move(sweep));
  CHRONOS_EXPECTS(status.ok(), status.to_string());
}

void TraceSweepSource::add_sweep_file(const TraceKey& key,
                                      const std::string& path) {
  const auto status = try_add_sweep_file(key, path);
  CHRONOS_EXPECTS(status.ok(), status.to_string());
}

bool TraceSweepSource::has_node(chronos::NodeId id) const {
  return node_arity_.contains(id.value);
}

chronos::Result<std::size_t> TraceSweepSource::antenna_count(
    chronos::NodeId id) const {
  const auto it = node_arity_.find(id.value);
  if (it == node_arity_.end()) return unknown_node(id);
  return it->second;
}

std::vector<chronos::NodeId> TraceSweepSource::nodes() const {
  std::vector<chronos::NodeId> out;
  out.reserve(node_arity_.size());
  for (const auto& [value, arity] : node_arity_) out.push_back({value});
  return out;
}

chronos::Result<ResolvedRequest> TraceSweepSource::resolve(
    const chronos::RangingRequest& request) const {
  auto check_ref = [this](const chronos::AntennaRef& ref) -> chronos::Status {
    const auto it = node_arity_.find(ref.node.value);
    if (it == node_arity_.end()) return unknown_node(ref.node);
    if (ref.antenna >= it->second) {
      return antenna_out_of_range(ref, it->second);
    }
    return chronos::Status::Ok();
  };
  if (auto s = check_ref(request.tx); !s.ok()) return s;
  if (auto s = check_ref(request.rx); !s.ok()) return s;
  if (!sweeps_.contains(TraceKey::of(request))) {
    return chronos::Status{
        chronos::StatusCode::kUnknownLink,
        "no recorded sweep for link (" +
            std::to_string(request.tx.node.value) + "/" +
            std::to_string(request.tx.antenna) + " -> " +
            std::to_string(request.rx.node.value) + "/" +
            std::to_string(request.rx.antenna) + ")"};
  }
  // Replay needs identity and arity only: synthesize minimal devices whose
  // hardware_seed carries the node id (TraceKey::of round-trips exactly).
  auto synthesize = [this](const chronos::AntennaRef& ref) {
    sim::Device d;
    d.hardware_seed = ref.node.value;
    d.antennas.assign(node_arity_.at(ref.node.value), geom::Vec2{0.0, 0.0});
    return d;
  };
  return ResolvedRequest{synthesize(request.tx), request.tx.antenna,
                         synthesize(request.rx), request.rx.antenna};
}

chronos::Result<phy::SweepMeasurement> TraceSweepSource::sweep_for(
    const ResolvedRequest& req, mathx::Rng& rng) const {
  const auto it = sweeps_.find(TraceKey::of(req));
  if (it == sweeps_.end()) {
    return chronos::Status{
        chronos::StatusCode::kUnknownLink,
        "no recorded sweep for link (" + std::to_string(req.tx.hardware_seed) +
            "/" + std::to_string(req.tx_antenna) + " -> " +
            std::to_string(req.rx.hardware_seed) + "/" +
            std::to_string(req.rx_antenna) + ")"};
  }
  const auto& recorded = it->second;
  if (recorded.size() == 1) return recorded.front();
  // Repeated measurements of one link: pick deterministically from the
  // request's stream (uniform over the recorded repetitions).
  const int idx =
      rng.uniform_int(0, static_cast<int>(recorded.size()) - 1);
  return recorded[static_cast<std::size_t>(idx)];
}

const std::vector<phy::WifiBand>& TraceSweepSource::bands() const {
  CHRONOS_EXPECTS(!bands_.empty(),
                  "TraceSweepSource has no recorded sweeps yet");
  return bands_;
}

std::size_t TraceSweepSource::sweep_count() const {
  std::size_t n = 0;
  for (const auto& [key, recorded] : sweeps_) n += recorded.size();
  return n;
}

}  // namespace chronos::core
