// The seeded office-testbed replay corpus every workload ranges against.
//
// Links (TX/RX placements on the paper's 20 m x 20 m office floor, 1-15 m
// apart, alternating LOS and NLOS) are drawn from the workload seed. Each
// link's sweep is synthesised ONCE by SimSweepSource::sweep_for and recorded
// into a TraceSweepSource; all ranging replays the recording, so simulator
// cost lands in set-up only. Ground truth is the placement distance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/calibration.hpp"
#include "core/engine.hpp"
#include "core/sweep_source.hpp"
#include "phy/csi.hpp"

namespace perfbench {

struct Link {
  chronos::RangingRequest request;
  chronos::core::ResolvedRequest resolved;  ///< as the trace resolves it
  double true_distance_m = 0.0;
};

struct Corpus {
  std::shared_ptr<chronos::core::TraceSweepSource> trace;
  std::vector<Link> links;
  /// Fixture calibration of the two radio personalities every link uses.
  chronos::core::CalibrationTable calibration;
  /// Ranging configuration the corpus was calibrated for.
  chronos::core::EngineConfig engine_config;
  /// Wall time of each link's SimSweepSource::sweep_for call [ms].
  std::vector<double> synth_ms;
  /// Order-sensitive hash of every recorded sample (set-up determinism).
  std::uint64_t fingerprint = 0;
};

/// Builds the corpus: `n_links` links from `seed`, synthesised on `threads`
/// threads (results do not depend on the thread count).
Corpus build_corpus(std::uint64_t seed, std::size_t n_links, int threads);

/// A copy of link i's recorded sweep, as the trace replays it. The trace
/// holds the only stored copy.
chronos::phy::SweepMeasurement recorded_sweep(const Corpus& corpus,
                                              std::size_t i);

}  // namespace perfbench
