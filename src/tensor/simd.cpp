#include "tensor/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "obs/report.hpp"
#include "tensor/simd_tables.hpp"
#include "util/logging.hpp"

namespace snntest::tensor::simd {

namespace {

const LaneKernels* table_for(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarLaneKernels;
    case Backend::kAvx2:
#if defined(SNNTEST_SIMD_AVX2)
      return &kAvx2LaneKernels;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool host_supports(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(SNNTEST_SIMD_AVX2) && (defined(__x86_64__) || defined(__i386__))
      // cpuid check: the AVX2 table is compiled in whenever the compiler
      // accepts -mavx2, but only dispatchable on hosts that execute it.
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

Backend startup_backend() {
  Backend selected = best_available_backend();
  const char* env = std::getenv("SNNTEST_SIMD");
  if (env && *env != '\0') {
    const std::string value(env);
    Backend requested;
    if (value == "auto") {
      // keep the default
    } else if (!parse_backend(value, requested)) {
      SNNTEST_LOG_WARN("SNNTEST_SIMD=%s not recognized (expected scalar|avx2|auto); "
                       "using %s",
                       value.c_str(), backend_name(selected));
    } else if (!backend_available(requested)) {
      SNNTEST_LOG_WARN("SNNTEST_SIMD=%s unavailable on this host; using %s", value.c_str(),
                       backend_name(selected));
    } else {
      selected = requested;
    }
  }
  return selected;
}

struct Dispatch {
  explicit Dispatch(Backend selected) : table(table_for(selected)), backend(selected) {}
  std::atomic<const LaneKernels*> table;
  std::atomic<Backend> backend;
};

Dispatch& dispatch() {
  // Magic static: the SNNTEST_SIMD override is resolved exactly once, on the
  // first kernel call (or backend query), before any threads race on it.
  static Dispatch d(startup_backend());
  // Environment provenance: the run report records the backend the dispatch
  // actually selected, even for runs that never reach a campaign.
  static const bool reported = [] {
    obs::set_report_field("simd_backend",
                          std::string(backend_name(d.backend.load(std::memory_order_relaxed))));
    return true;
  }();
  (void)reported;
  return d;
}

}  // namespace

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
  }
  return "unknown";
}

bool parse_backend(const std::string& name, Backend& out) {
  if (name == "scalar") { out = Backend::kScalar; return true; }
  if (name == "avx2") { out = Backend::kAvx2; return true; }
  return false;
}

bool backend_available(Backend backend) {
  return table_for(backend) != nullptr && host_supports(backend);
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2}) {
    if (backend_available(b)) out.push_back(b);
  }
  return out;
}

Backend best_available_backend() {
  if (backend_available(Backend::kAvx2)) return Backend::kAvx2;
  return Backend::kScalar;
}

Backend active_backend() { return dispatch().backend.load(std::memory_order_relaxed); }

bool force_backend(Backend backend) {
  if (!backend_available(backend)) return false;
  Dispatch& d = dispatch();
  d.table.store(table_for(backend), std::memory_order_relaxed);
  d.backend.store(backend, std::memory_order_relaxed);
  obs::set_report_field("simd_backend", std::string(backend_name(backend)));
  return true;
}

const LaneKernels& lane_ops() { return *dispatch().table.load(std::memory_order_relaxed); }

}  // namespace snntest::tensor::simd
