#include "corpus.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "mathx/rng.hpp"
#include "sim/radio.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

namespace {

// Radio personalities of the two physical cards swept over every placement
// (one node id per placement), and the calibration fixture's node ids.
constexpr std::uint64_t kTxCard = 11;
constexpr std::uint64_t kRxCard = 22;
constexpr std::uint64_t kTxNodeBase = 1'000'000;
constexpr std::uint64_t kRxNodeBase = 2'000'000;
constexpr chronos::NodeId kCalTx{9001};
constexpr chronos::NodeId kCalRx{9002};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

}  // namespace

Corpus build_corpus(std::uint64_t seed, std::size_t n_links, int threads) {
  using namespace chronos;
  Corpus corpus;

  const sim::Scenario scen = sim::office_testbed(42);
  auto sim_source = std::make_shared<core::SimSweepSource>(
      scen.environment(), corpus.engine_config.link);

  mathx::Rng rng(seed);
  mathx::Rng place_rng = rng.fork(0x706C616365ull);  // "place"
  const mathx::Rng synth_base = rng.fork(0x73796E7468ull);  // "synth"
  mathx::Rng cal_rng = rng.fork(0x63616Cull);  // "cal"

  // Placements: alternate LOS / NLOS so every seed has the same mix.
  corpus.links.resize(n_links);
  for (std::size_t i = 0; i < n_links; ++i) {
    const sim::Placement pl =
        (i % 2 == 0) ? scen.sample_pair_los(place_rng, 1.0, 15.0)
                     : scen.sample_pair_nlos(place_rng, 1.0, 15.0);
    const NodeId tx{kTxNodeBase + i};
    const NodeId rx{kRxNodeBase + i};
    sim_source->add_node(tx, sim::make_mobile(pl.tx, kTxCard));
    sim_source->add_node(rx, sim::make_mobile(pl.rx, kRxCard));
    Link& link = corpus.links[i];
    link.request = {{tx, 0}, {rx, 0}};
    link.true_distance_m = pl.distance();
  }

  // Synthesis: link i draws from synth_base.split(i), so the recorded
  // sweeps are the same for every thread count.
  std::vector<phy::SweepMeasurement> sweeps(n_links);
  corpus.synth_ms.resize(n_links);
  std::vector<Status> statuses(n_links);
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (std::size_t i = next.fetch_add(1); i < n_links;
         i = next.fetch_add(1)) {
      const auto t0 = Clock::now();
      Result<core::ResolvedRequest> resolved =
          sim_source->resolve(corpus.links[i].request);
      if (!resolved.ok()) {
        statuses[i] = resolved.status();
        continue;
      }
      mathx::Rng link_rng = synth_base.split(i);
      Result<phy::SweepMeasurement> sweep =
          sim_source->sweep_for(resolved.value(), link_rng);
      corpus.synth_ms[i] = ms_between(t0, Clock::now());
      if (!sweep.ok()) {
        statuses[i] = sweep.status();
        continue;
      }
      sweeps[i] = std::move(sweep).value();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  for (const Status& s : statuses) {
    if (!s.ok()) throw std::runtime_error("corpus synthesis: " + s.to_string());
  }

  // Move every sweep into the replay backend.
  corpus.trace = std::make_shared<core::TraceSweepSource>();
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n_links; ++i) {
    const RangingRequest& req = corpus.links[i].request;
    for (const auto& band : sweeps[i].bands) {
      for (const auto& cap : band) {
        for (const auto& v : cap.forward.values) {
          h = mix(mix(h, bits_of(v.real())), bits_of(v.imag()));
        }
        for (const auto& v : cap.reverse.values) {
          h = mix(mix(h, bits_of(v.real())), bits_of(v.imag()));
        }
      }
    }
    corpus.trace->add_sweep(core::TraceKey::of(req), std::move(sweeps[i]));
    Result<core::ResolvedRequest> resolved = corpus.trace->resolve(req);
    if (!resolved.ok()) {
      throw std::runtime_error("trace resolve: " +
                               resolved.status().to_string());
    }
    corpus.links[i].resolved = std::move(resolved).value();
  }
  corpus.fingerprint = h;

  // One-time fixture calibration of the card pair (paper section 7).
  sim_source->add_node(kCalTx, sim::make_mobile({0.0, 0.0}, kTxCard));
  sim_source->add_node(kCalRx, sim::make_mobile({1.0, 0.0}, kRxCard));
  core::ChronosEngine cal_engine(sim_source, corpus.engine_config);
  if (Status s = cal_engine.calibrate(kCalTx, kCalRx, cal_rng); !s.ok()) {
    throw std::runtime_error("calibration: " + s.to_string());
  }
  corpus.calibration = cal_engine.calibration();
  return corpus;
}

chronos::phy::SweepMeasurement recorded_sweep(const Corpus& corpus,
                                              std::size_t i) {
  chronos::mathx::Rng unused(0);  // one recording per link: no draw
  chronos::Result<chronos::phy::SweepMeasurement> sweep =
      corpus.trace->sweep_for(corpus.links[i].resolved, unused);
  if (!sweep.ok()) {
    throw std::runtime_error("recorded sweep: " + sweep.status().to_string());
  }
  return std::move(sweep).value();
}

}  // namespace perfbench
