// Machine normalisation: a host fingerprint and an in-run reference kernel,
// so figures from different machines can be compared.
#pragma once

#include <string>

namespace perfbench {

/// nproc, CPU model, compiler, build type and compile-time ISA flags as one
/// JSON object.
std::string host_fingerprint_json();

/// Reference-kernel time [ns] per product that the normalised metrics are
/// scaled to: "ms at reference speed" means ms on a machine (or in a moment)
/// where one product takes this long.
inline constexpr double kRefNominalNs = 50'000.0;

/// Median wall time [ns] of a dense split-complex matrix-vector product
/// shaped like one FISTA gradient arm (35 rows x 1201 delay bins), written
/// in the benchmark so that no change to the repository's kernels moves it:
/// it measures the machine, not the code.
double reference_kernel_ns();

/// The same kernel on `threads` threads at once, `calls` products each:
/// the harmonic mean of the per-thread times [ns] per product.
double reference_burst_ns(int threads, int calls);

}  // namespace perfbench
