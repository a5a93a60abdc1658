#ifndef TQP_DEVICE_DEVICE_H_
#define TQP_DEVICE_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/sync.h"

namespace tqp {

/// \brief Hardware backends a tensor program can target.
///
/// The paper runs on real CPUs and an NVIDIA P100. This environment has no
/// GPU, so `kCudaSim` executes every kernel bit-exactly on the host while a
/// roofline cost model accumulates a *simulated* device clock. Results are
/// identical across devices; only timing differs.
enum class DeviceKind : int8_t {
  kCpu = 0,
  kCudaSim = 1,
};

inline constexpr int kNumDevices = 2;

const char* DeviceKindName(DeviceKind kind);

/// \brief Cost descriptor for one kernel launch, used by the GPU simulator.
struct KernelCost {
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t flops = 0;
  /// Number of dependent passes over the data (e.g. log n for sorts); each
  /// pass pays a kernel launch.
  int64_t passes = 1;
};

/// \brief Roofline parameters for a simulated accelerator.
///
/// Defaults are NVIDIA P100 (PCIe) published specs — the card used in the
/// paper's evaluation (§2.3).
struct AcceleratorSpec {
  double mem_bandwidth_bytes_per_sec = 732.0e9;  // HBM2
  double flops_per_sec = 9.3e12;                 // fp32 peak
  double kernel_launch_sec = 5.0e-6;             // typical CUDA launch latency
  double pcie_bytes_per_sec = 12.0e9;            // effective PCIe 3.0 x16
  /// Achievable fraction of peak for irregular (gather/hash) kernels.
  double irregular_efficiency = 0.25;
};

/// \brief A compute device: identity plus (for simulated devices) a clock.
///
/// Thread-safe: the device objects are process-wide singletons and the
/// runtime executors meter kernels from concurrent queries, so the clock
/// updates are internally serialized. Clock *reads* against in-flight
/// queries are racy by nature — reset and read around a run, as the benches
/// do.
class Device {
 public:
  Device(DeviceKind kind, AcceleratorSpec spec)
      : kind_(kind), spec_(spec) {}

  DeviceKind kind() const { return kind_; }
  std::string name() const { return DeviceKindName(kind_); }
  bool is_simulated() const { return kind_ != DeviceKind::kCpu; }
  const AcceleratorSpec& spec() const { return spec_; }

  /// \brief Charges one kernel to the simulated clock (no-op on CPU).
  /// Regular kernels are bandwidth/compute bound; `irregular` kernels
  /// (gather, hash probes) run at a derated bandwidth.
  void RecordKernel(const KernelCost& cost, bool irregular = false);

  /// \brief Charges a host<->device transfer of `bytes` over PCIe.
  void RecordTransfer(int64_t bytes);

  /// \brief Simulated elapsed seconds since the last ResetClock.
  double simulated_seconds() const {
    MutexLock lock(mu_);
    return sim_clock_sec_;
  }
  int64_t kernels_launched() const {
    MutexLock lock(mu_);
    return kernels_launched_;
  }
  int64_t bytes_transferred() const {
    MutexLock lock(mu_);
    return bytes_transferred_;
  }

  void ResetClock() {
    MutexLock lock(mu_);
    sim_clock_sec_ = 0.0;
    kernels_launched_ = 0;
    bytes_transferred_ = 0;
  }

 private:
  DeviceKind kind_;
  AcceleratorSpec spec_;
  mutable Mutex mu_;
  double sim_clock_sec_ TQP_GUARDED_BY(mu_) = 0.0;
  int64_t kernels_launched_ TQP_GUARDED_BY(mu_) = 0;
  int64_t bytes_transferred_ TQP_GUARDED_BY(mu_) = 0;
};

/// \brief Returns the process-wide device object for `kind`.
Device* GetDevice(DeviceKind kind);

/// \brief Modeled slowdown of the paper's web scenario environment relative
/// to this host: the paper runs the browser backend on a personal laptop
/// (Surface Book 3) inside a JavaScript/WASM runtime, while our bytecode
/// interpreter executes on the benchmark host. Web timings reported by the
/// benches are interpreter wall time x this factor (documented in
/// EXPERIMENTS.md; the interpreter itself is already scalar/boxed).
inline constexpr double kWebEnvironmentDerating = 4.0;

}  // namespace tqp

#endif  // TQP_DEVICE_DEVICE_H_
