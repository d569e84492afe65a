#include "yardstick.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

namespace snntest::bench {

namespace {

constexpr int kRows = 256;
constexpr int kCols = 1024;
constexpr int kFrames = 16;
constexpr int kRepeats = 3;

/// One thread's working set, allocated once so a measurement never pays
/// for page faults.
struct Buffers {
  std::vector<float> w = std::vector<float>(kRows * kCols, 0.001f);
  std::vector<float> x = std::vector<float>(kCols, 1.0f);
  std::vector<float> u = std::vector<float>(kRows, 0.0f);
};

/// A dense synaptic-current sweep: kFrames frames of a 256x1024 float
/// matvec with double accumulation and a leaky state update, the shape of
/// the work the library's layers do, on a 1 MiB working set.
void sweep(Buffers& b) {
  for (int f = 0; f < kFrames; ++f) {
    for (int r = 0; r < kRows; ++r) {
      double acc = 0.0;
      const float* row = b.w.data() + static_cast<size_t>(r) * kCols;
      for (int c = 0; c < kCols; ++c) acc += static_cast<double>(row[c]) * b.x[c];
      b.u[r] = 0.5f * b.u[r] + static_cast<float>(acc);
    }
    b.x[f % kCols] += b.u[f % kRows];
  }
}

/// The fastest of kRepeats sweeps, so a momentary stall of one sweep does
/// not count; a slow phase of the machine slows all of them.
double best_sweep(Buffers& b) {
  double best = 1e30;
  for (int r = 0; r < kRepeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    sweep(b);
    best = std::min(best, std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

}  // namespace

double yardstick_seconds(size_t threads) {
  static std::vector<Buffers> buffers;
  threads = std::max<size_t>(1, threads);
  if (buffers.size() < threads) buffers.resize(threads);
  std::vector<double> best(threads, 0.0);
  std::vector<std::thread> workers;
  for (size_t i = 1; i < threads; ++i) {
    workers.emplace_back([&, i] { best[i] = best_sweep(buffers[i]); });
  }
  best[0] = best_sweep(buffers[0]);
  for (auto& t : workers) t.join();
  double sum = 0.0;
  for (double b : best) sum += b;
  return sum / static_cast<double>(threads);
}

}  // namespace snntest::bench
