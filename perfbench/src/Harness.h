//===- Harness.h - application instances and layer accounting ----*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload is built from. An Instance is one HeCBench
/// program brought up on one architecture through the same public calls
/// hecbench::runBenchmark makes (module build, aotCompile, Device,
/// JitRuntime, LoadedProgram, buffer upload), each wrapped in a span.
/// LayerTotals accumulates the traced run's per-layer numbers from spans,
/// JitRuntime::stats() deltas and CodeCache::stats() deltas.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Bench.h"

#include "hecbench/Benchmark.h"

#include <memory>
#include <random>

namespace perfbench {

using proteus::GpuArch;

constexpr GpuArch Arches[] = {GpuArch::AmdGcnSim, GpuArch::NvPtxSim};

/// Device memory of the table2 instances: the harness's own size.
constexpr uint64_t HarnessDeviceBytes = 1ull << 28;
/// Device memory of the one-thread workloads. It holds every program's
/// buffers (6.2 MB), and is no smaller than glibc's largest dynamic mmap
/// threshold (32 MiB), so each device is a fresh mapping: a smaller one
/// may reuse heap pages of the previous round, and set-up time and peak
/// memory would then depend on the allocation history.
constexpr uint64_t SmallDeviceBytes = 32ull << 20;

/// A program's fixed description, computed once per run.
struct ProgramInfo {
  std::unique_ptr<proteus::hecbench::Benchmark> B;
  std::vector<proteus::hecbench::LaunchSpec> Launches;
  std::vector<proteus::hecbench::BufferSpec> Buffers;
  /// 1-based annotated argument indices of each JIT kernel.
  std::map<std::string, std::vector<uint32_t>> Annotated;
  /// Index into Launches of the first launch of each distinct JIT
  /// specialization (symbol + annotated argument values), in launch order.
  std::vector<size_t> Specs;
};

/// The six programs (or the subset named in \p Only), in paper order.
std::vector<ProgramInfo> loadPrograms(const std::vector<std::string> &Only);

/// Deterministic Fisher-Yates shuffle driven by the run's seed.
template <typename T> void shuffle(std::vector<T> &V, std::mt19937_64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng() % I]);
}

/// A runtime's counters at one instant.
struct Sample {
  proteus::JitRuntimeStats Jit;
  proteus::CodeCacheStats Cache;
};

/// Per-layer totals of a traced run (seconds unless named otherwise).
struct LayerTotals {
  double JitLaunchWall = 0; // wall inside JIT launch calls
  double JitInLaunch = 0;   // JIT stat deltas over those launches
  uint64_t SimInstr = 0;    // simulated thread-instructions
  double SimDeviceSeconds = 0;
  proteus::JitRuntimeStats Jit; // summed deltas
  proteus::CodeCacheStats Cache;
  double LookupSeconds[3] = {0, 0, 0}; // memory, disk, miss
  uint64_t LookupCount[3] = {0, 0, 0};

  /// Adds the counter deltas of one sampled interval of one runtime.
  void account(const Sample &Before, const Sample &After);
};

/// Shared state of one run.
struct Context {
  const Options &Opts;
  Report &Out;
  SpanRecorder Spans;
  LayerTotals Layers;
  /// True inside the traced window: launches are timed and split.
  bool Sampling = false;
  /// Whether each JIT launch samples its runtime's counters. Workloads
  /// with microsecond launches sample per batch instead.
  bool SampleEachLaunch = true;

  Context(const Options &O, Report &R, bool Trace)
      : Opts(O), Out(R), Spans(Trace) {}
};

/// Host JIT seconds as the paper (and runBenchmark) count them.
inline double hostJitSeconds(const proteus::JitRuntimeStats &S) {
  return S.totalCompileSeconds() + S.CacheLookupSeconds;
}

/// One program loaded on one device.
class Instance {
public:
  Instance(const ProgramInfo &P, GpuArch Arch) : P(P), Arch(Arch) {}

  const ProgramInfo &P;
  GpuArch Arch;
  std::unique_ptr<pir::Context> IrCtx;
  std::unique_ptr<pir::Module> M;
  proteus::CompiledProgram Prog;
  proteus::gpu::Device *Dev = nullptr;
  std::unique_ptr<proteus::JitRuntime> Jit;
  std::unique_ptr<proteus::LoadedProgram> LP;
  std::map<std::string, proteus::gpu::DevicePtr> Ptrs;
  std::map<std::string, uint64_t> Sizes;

  /// Module build + aotCompile.
  void compile(Context &C, bool ProteusExtensions);
  /// A fresh JitRuntime on \p CacheDir (cleared first when \p Clear).
  void makeRuntime(Context &C, const std::string &CacheDir, bool Clear);
  /// LoadedProgram over the current runtime (null runtime: AOT only).
  bool load(Context &C);
  /// Allocates (first call) and uploads every buffer's initial contents.
  bool upload(Context &C);
  /// Drops the program and runtime, keeping device and buffers.
  void unload();

  std::vector<proteus::gpu::KernelArg>
  args(const proteus::hecbench::LaunchSpec &L) const;

  /// Launches \p L with the given geometry and arguments. Inside the
  /// traced window the launch is timed and, with SampleEachLaunch, split
  /// into JIT stat deltas and the rest. Returns false (and sets \p Error)
  /// when the launch fails.
  bool launch(Context &C, const proteus::hecbench::LaunchSpec &L,
              proteus::gpu::Dim3 Grid, proteus::gpu::Dim3 Block,
              const std::vector<proteus::gpu::KernelArg> &Args,
              std::string &Error);
  bool launch(Context &C, const proteus::hecbench::LaunchSpec &L,
              proteus::gpu::Dim3 Grid, proteus::gpu::Dim3 Block,
              std::string &Error) {
    return launch(C, L, Grid, Block, args(L), Error);
  }

  /// This instance's runtime counters (traced runs only).
  Sample sample(Context &C) const;

  /// "<program>/<arch>/<buffer>" -> hex digest of the buffer's contents.
  std::map<std::string, std::string> digests() const;

  std::string label() const;
};

/// Owns a device inside a span; the destructor is not timed.
std::unique_ptr<proteus::gpu::Device> makeDevice(Context &C, GpuArch Arch,
                                                 uint64_t Bytes);

/// Removes and recreates \p Dir.
bool resetDirectory(const std::string &Dir);

/// Per-operation latency samples. A workload repeats a fixed set of
/// distinct operations (program runs, specializations). The typical
/// latency is taken within each operation and then averaged over
/// operations, because a middle statistic of the pooled mixture jumps
/// between operations whenever it falls on the boundary of two of them.
/// Each operation keeps at most Capacity samples (uniform reservoir), so
/// memory stays flat.
class LatencyLog {
public:
  static constexpr size_t Capacity = 1 << 18;

  void add(size_t Op, double Micros);
  /// Nearest-rank percentile \p Q of all samples together: the tail a
  /// user sees, set by the slowest operations. Every operation contributes
  /// the same number of samples, so the pool is not skewed to fast ones.
  double pooledPercentile(double Q);
  /// Geometric mean over operations of each operation's interquartile
  /// mean. Unlike the median it moves smoothly when an operation's samples
  /// mix a fast and a slow machine state, as they do on shared CPUs.
  double geomeanInterquartileMean();
  uint64_t count() const { return Total; }

private:
  struct Reservoir {
    std::vector<float> Samples;
    uint64_t Seen = 0;
  };
  std::vector<Reservoir> Ops;
  uint64_t Total = 0;
  uint64_t Rng = 0x9e3779b97f4a7c15ull;
};

/// Pins the calling thread to each CPU of its starting affinity mask in
/// turn, and restores the mask on destruction. On a shared virtual machine
/// the speed of one CPU differs from another's by up to 2x for minutes at
/// a time; rotating makes every run sample every CPU alike. A traced run
/// does not rotate: its untraced and traced halves alternate, and must not
/// land on different CPUs by construction.
class CpuRotation {
public:
  explicit CpuRotation(bool Enabled);
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void next();

private:
  std::vector<int> Cpus;
  size_t Index = 0;
};

double geomean(const std::vector<double> &V);

/// Probes run after the traced window on one-thread launches of the given
/// programs' specializations: JIT memory-hit launches against direct
/// launches of the identical cached object, and a backend recompile of
/// each specialization for the codegen split. Adds per-layer metrics.
void runProbes(Context &C, const std::vector<const ProgramInfo *> &Programs,
               bool RecordedBlock);

/// Adds every per-layer metric derived from the traced window.
void addLayerMetrics(Context &C, double WindowSeconds, double UntracedSeconds);

/// Adds the end-to-end metrics. \p Rates holds the operations per second
/// of each window of the measured loop (a table2 pass, a cold-start round,
/// a hot-launch CPU window); ops_per_s is their interquartile mean, so a
/// window that lost its CPU to another tenant does not move it.
void addEndToEnd(Context &C, std::vector<double> &SetupSeconds,
                 std::vector<double> &Rates, LatencyLog &Latency,
                 std::vector<double> &SpeedupCold,
                 std::vector<double> &SpeedupWarm);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
