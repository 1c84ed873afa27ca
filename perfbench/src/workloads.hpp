// The benchmark's workloads. Each runs its measured phase for
// options.seconds untraced, checks every output, and fills `report` with the
// end-to-end metrics (or, with options.trace, the per-layer metrics of a
// separate traced pass plus the tracing overhead).
#pragma once

#include "common.hpp"

namespace perfbench {

/// Offline fleet ranging: ChronosEngine::measure_batch over the replayed
/// corpus, trusted integrity, no faults, no retries.
void run_office_batch(const Options& options, Report& report, Tracer& tracer);

/// chronosd over loopback, 2 shards x 1 worker, untrusted clients: one
/// open-loop connection replaying fault-injected sweeps with retries.
void run_daemon_hostile(const Options& options, Report& report, Tracer& tracer);

}  // namespace perfbench
