// Machine-speed yardstick for bench_pipeline.
//
// The benchmark runs on shared machines whose speed drifts by 20-30% over
// minutes as other tenants load the host, and a run cannot average that
// away in seconds. A fixed kernel, owned by the benchmark and compiled with
// its own flags (never the library's), is timed on the workload's thread
// count right before and after every timed call, and the call's time is
// rescaled to the speed at which the kernel takes kYardstickRefSeconds. A
// library change cannot move the kernel, so it cannot hide in the rescaling.
#pragma once

#include <cmath>
#include <cstddef>

namespace snntest::bench {

/// Kernel time that defines the reference speed (about this kernel's time
/// on an idle host of the machine the baselines were recorded on).
inline constexpr double kYardstickRefSeconds = 0.0035;

/// How strongly a workload's time follows the kernel's: over 80 runs on
/// the baseline machine, log(pass time) moved 0.52-0.73 per unit of
/// log(kernel time). The workloads spend part of their time in memory
/// traffic and thread hand-offs, which the drift scales less than the
/// kernel's arithmetic, so a full rescaling would overcorrect.
inline constexpr double kYardstickExponent = 0.7;

/// Wall seconds of one run of the fixed kernel on `threads` threads at once
/// (the fastest of three sweeps per thread, averaged over the threads).
double yardstick_seconds(size_t threads);

/// Factor that rescales a time measured while the kernel took
/// `kernel_seconds` to the reference speed.
inline double reference_scale(double kernel_seconds) {
  return std::pow(kYardstickRefSeconds / kernel_seconds, kYardstickExponent);
}

}  // namespace snntest::bench
