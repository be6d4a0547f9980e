//===- Harness.cpp - application instances and layer accounting --*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "bitcode/Bitcode.h"
#include "gpu/Runtime.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "transforms/O3Pipeline.h"
#include "transforms/SpecializeArgs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sched.h>
#include <sys/resource.h>

using namespace perfbench;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::hecbench;

std::vector<ProgramInfo>
perfbench::loadPrograms(const std::vector<std::string> &Only) {
  std::vector<ProgramInfo> Out;
  for (std::unique_ptr<Benchmark> &B : allBenchmarks()) {
    if (!Only.empty() &&
        std::find(Only.begin(), Only.end(), B->name()) == Only.end())
      continue;
    ProgramInfo P;
    P.Launches = B->launches();
    P.Buffers = B->buffers();
    pir::Context Ctx;
    std::unique_ptr<pir::Module> M = B->buildModule(Ctx);
    for (pir::Function *K : M->kernels())
      if (const auto &Ann = K->getJitAnnotation())
        P.Annotated[K->getName()] = Ann->ArgIndices;
    std::set<std::string> Seen;
    for (size_t I = 0; I != P.Launches.size(); ++I) {
      const LaunchSpec &L = P.Launches[I];
      auto It = P.Annotated.find(L.Symbol);
      if (It == P.Annotated.end())
        continue;
      std::string Key = L.Symbol;
      for (uint32_t A : It->second)
        Key += "/" + std::to_string(L.Args[A - 1].Bits);
      if (Seen.insert(Key).second)
        P.Specs.push_back(I);
    }
    P.B = std::move(B);
    Out.push_back(std::move(P));
  }
  return Out;
}

namespace {

/// Nearest-rank percentile \p Q of \p V (reorders it).
template <typename T> double percentile(std::vector<T> &V, double Q) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  size_t Index = Rank == 0 ? 0 : std::min(Rank, V.size()) - 1;
  std::nth_element(V.begin(), V.begin() + static_cast<long>(Index), V.end());
  return static_cast<double>(V[Index]);
}

/// Mean of the middle half of \p V (reorders it).
double interquartileMean(std::vector<double> &V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Lo = V.size() / 4, Hi = V.size() - V.size() / 4;
  double Sum = 0;
  for (size_t I = Lo; I != Hi; ++I)
    Sum += V[I];
  return Sum / static_cast<double>(Hi - Lo);
}

/// Peak resident set size of the process in MB.
double peakRssMb() {
  struct rusage RU {};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// The specialization key JitRuntime builds for \p L at \p Threads
/// launch-bounds threads (default configuration: RCF and LB on).
SpecializationKey specKey(const Instance &I, const LaunchSpec &L,
                          uint32_t Threads) {
  SpecializationKey Key;
  Key.ModuleId = I.Prog.ModuleId;
  Key.KernelSymbol = L.Symbol;
  Key.Arch = I.Arch;
  std::vector<KernelArg> A = I.args(L);
  for (uint32_t OneBased : I.P.Annotated.at(L.Symbol))
    Key.FoldedArgs.push_back(RuntimeArgValue{OneBased - 1, A[OneBased - 1].Bits});
  Key.LaunchBoundsThreads = Threads;
  return Key;
}

} // namespace

//===----------------------------------------------------------------------===//
// LayerTotals
//===----------------------------------------------------------------------===//

void LayerTotals::account(const Sample &Before, const Sample &After) {
#define PERFBENCH_DELTA(Field, Name) Jit.Field += After.Jit.Field - Before.Jit.Field;
  PROTEUS_JIT_COUNTERS(PERFBENCH_DELTA)
  PROTEUS_JIT_TIMERS(PERFBENCH_DELTA)
#undef PERFBENCH_DELTA
  for (const auto &[Pass, Seconds] : After.Jit.O3PassSeconds) {
    auto It = Before.Jit.O3PassSeconds.find(Pass);
    Jit.O3PassSeconds[Pass] +=
        Seconds - (It == Before.Jit.O3PassSeconds.end() ? 0.0 : It->second);
  }
  uint64_t Counts[3] = {After.Cache.MemoryHits - Before.Cache.MemoryHits,
                        After.Cache.PersistentHits - Before.Cache.PersistentHits,
                        After.Cache.Misses - Before.Cache.Misses};
  Cache.MemoryHits += Counts[0];
  Cache.PersistentHits += Counts[1];
  Cache.Misses += Counts[2];
  Cache.Insertions += After.Cache.Insertions - Before.Cache.Insertions;
  JitInLaunch += hostJitSeconds(After.Jit) - hostJitSeconds(Before.Jit);
  // Lookup time goes to the level that served the interval's launches;
  // an interval that mixes levels splits it by launch count.
  double Lookup = After.Jit.CacheLookupSeconds - Before.Jit.CacheLookupSeconds;
  uint64_t All = Counts[0] + Counts[1] + Counts[2];
  for (int L = 0; L != 3 && All; ++L) {
    LookupSeconds[L] += Lookup * static_cast<double>(Counts[L]) /
                        static_cast<double>(All);
    LookupCount[L] += Counts[L];
  }
}

//===----------------------------------------------------------------------===//
// Instance
//===----------------------------------------------------------------------===//

std::unique_ptr<Device> perfbench::makeDevice(Context &C, GpuArch Arch,
                                              uint64_t Bytes) {
  SpanRecorder::Scope S(C.Spans, "gpu.device_init");
  return std::make_unique<Device>(getTarget(Arch), Bytes);
}

void Instance::compile(Context &C, bool ProteusExtensions) {
  {
    SpanRecorder::Scope S(C.Spans, "hecbench.build_module");
    IrCtx = std::make_unique<pir::Context>();
    M = P.B->buildModule(*IrCtx);
  }
  SpanRecorder::Scope S(C.Spans, "jit.aot_compile");
  AotOptions AO;
  AO.Arch = Arch;
  AO.EnableProteusExtensions = ProteusExtensions;
  Prog = aotCompile(*M, AO);
}

void Instance::makeRuntime(Context &C, const std::string &CacheDir,
                           bool Clear) {
  {
    SpanRecorder::Scope S(C.Spans, "jit.runtime_init");
    JitConfig Config; // default: Sync, tiering off, RCF + LB on
    Config.CacheDir = CacheDir;
    Jit = std::make_unique<JitRuntime>(*Dev, Prog.ModuleId, Config);
  }
  if (Clear) {
    SpanRecorder::Scope S(C.Spans, "jit.cache_clear");
    Jit->cache().clearPersistent();
  }
}

bool Instance::load(Context &C) {
  SpanRecorder::Scope S(C.Spans, "jit.program_load");
  LP = std::make_unique<LoadedProgram>(*Dev, Prog, Jit.get());
  if (!LP->ok())
    C.Out.Errors.push_back(label() + ": " + LP->error());
  return LP->ok();
}

bool Instance::upload(Context &C) {
  SpanRecorder::Scope S(C.Spans, "gpu.upload");
  bool Allocate = Ptrs.empty();
  for (const BufferSpec &BS : P.Buffers) {
    DevicePtr Ptr = 0;
    if (Allocate) {
      if (gpuMalloc(*Dev, &Ptr, BS.Init.size()) != GpuError::Success)
        return false;
      Ptrs[BS.Name] = Ptr;
      Sizes[BS.Name] = BS.Init.size();
    } else {
      Ptr = Ptrs.at(BS.Name);
    }
    if (gpuMemcpyHtoD(*Dev, Ptr, BS.Init.data(), BS.Init.size()) !=
        GpuError::Success)
      return false;
  }
  return true;
}

void Instance::unload() {
  LP.reset();
  Jit.reset();
}

std::vector<KernelArg> Instance::args(const LaunchSpec &L) const {
  std::vector<KernelArg> Out;
  Out.reserve(L.Args.size());
  for (const ArgSpec &A : L.Args)
    Out.push_back(KernelArg{A.K == ArgSpec::Kind::Scalar
                                ? A.Bits
                                : Ptrs.at(A.BufferName) + A.ByteOffset});
  return Out;
}

Sample Instance::sample(Context &C) const {
  SpanRecorder::Scope S(C.Spans, "trace.sample");
  return Sample{Jit->stats(), Jit->cache().stats()};
}

bool Instance::launch(Context &C, const LaunchSpec &L, Dim3 Grid, Dim3 Block,
                      const std::vector<KernelArg> &Args, std::string &Error) {
  bool Split = C.Sampling && C.SampleEachLaunch && Jit;
  Sample Before;
  if (Split)
    Before = sample(C);
  GpuError E;
  double Start = 0, End = 0;
  {
    SpanRecorder::Scope S(C.Spans, Jit ? "jit.launch" : "gpu.launch");
    if (C.Sampling)
      Start = nowSeconds();
    E = LP->launch(L.Symbol, Grid, Block, Args, &Error);
    if (C.Sampling)
      End = nowSeconds();
  }
  if (E != GpuError::Success) {
    Error = label() + " @" + L.Symbol + ": " + gpuErrorName(E) + " " + Error;
    return false;
  }
  if (!C.Sampling)
    return true;
  C.Layers.SimInstr += Dev->LastLaunch.TotalInstrs;
  if (Jit)
    C.Layers.JitLaunchWall += End - Start;
  if (Split)
    C.Layers.account(Before, sample(C));
  return true;
}

namespace {
/// 64-bit digest of a buffer, eight bytes per step (FNV-1a mixing per word
/// plus a final avalanche): fast enough to check every output of a run.
uint64_t digestBytes(const uint8_t *Data, size_t Size) {
  constexpr uint64_t Prime = 0x100000001b3ull;
  uint64_t H = 0xcbf29ce484222325ull ^ Size;
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    uint64_t W;
    std::memcpy(&W, Data + I, 8);
    H = (H ^ W) * Prime;
    H ^= H >> 29;
  }
  for (; I < Size; ++I)
    H = (H ^ Data[I]) * Prime;
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  return H ^ (H >> 33);
}
} // namespace

std::map<std::string, std::string> Instance::digests() const {
  std::map<std::string, std::string> Out;
  for (const auto &[Name, Ptr] : Ptrs) {
    uint64_t H = digestBytes(Dev->memory().data() + Ptr, Sizes.at(Name));
    Out[P.B->name() + "/" + gpuArchName(Arch) + "/" + Name] = hashToHex(H);
  }
  return Out;
}

std::string Instance::label() const {
  return P.B->name() + "/" + gpuArchName(Arch);
}

bool perfbench::resetDirectory(const std::string &Dir) {
  return fs::removeTree(Dir) && fs::createDirectories(Dir);
}

void LatencyLog::add(size_t Op, double Micros) {
  if (Op >= Ops.size())
    Ops.resize(Op + 1);
  Reservoir &R = Ops[Op];
  ++Total;
  if (R.Samples.size() < Capacity) {
    R.Samples.push_back(static_cast<float>(Micros));
  } else {
    Rng ^= Rng << 13; // xorshift64
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    uint64_t Slot = Rng % (R.Seen + 1);
    if (Slot < Capacity)
      R.Samples[Slot] = static_cast<float>(Micros);
  }
  ++R.Seen;
}

double LatencyLog::pooledPercentile(double Q) {
  std::vector<float> All;
  for (const Reservoir &R : Ops)
    All.insert(All.end(), R.Samples.begin(), R.Samples.end());
  return percentile(All, Q);
}

double LatencyLog::geomeanInterquartileMean() {
  std::vector<double> PerOp;
  for (Reservoir &R : Ops)
    if (!R.Samples.empty()) {
      std::vector<double> V(R.Samples.begin(), R.Samples.end());
      PerOp.push_back(interquartileMean(V));
    }
  return geomean(PerOp);
}

CpuRotation::CpuRotation(bool Enabled) {
  cpu_set_t Mask;
  if (Enabled && sched_getaffinity(0, sizeof(Mask), &Mask) == 0)
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Mask))
        Cpus.push_back(Cpu);
}

CpuRotation::~CpuRotation() {
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  for (int Cpu : Cpus)
    CPU_SET(Cpu, &Mask);
  if (!Cpus.empty())
    sched_setaffinity(0, sizeof(Mask), &Mask);
}

void CpuRotation::next() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  CPU_SET(Cpus[Index++ % Cpus.size()], &Mask);
  sched_setaffinity(0, sizeof(Mask), &Mask);
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

void perfbench::addEndToEnd(Context &C, std::vector<double> &SetupSeconds,
                            std::vector<double> &Rates, LatencyLog &Latency,
                            std::vector<double> &SpeedupCold,
                            std::vector<double> &SpeedupWarm) {
  std::map<std::string, Metric> &E = C.Out.EndToEnd;
  E["setup_s"] = {percentile(SetupSeconds, 0.5), "s"};
  E["ops_per_s"] = {interquartileMean(Rates), "1/s"};
  E["op_iqm_us"] = {Latency.geomeanInterquartileMean(), "us"};
  E["op_p99_us"] = {Latency.pooledPercentile(0.99), "us"};
  E["speedup_cold"] = {percentile(SpeedupCold, 0.5), "x"};
  E["speedup_warm"] = {percentile(SpeedupWarm, 0.5), "x"};
  E["peak_rss_mb"] = {peakRssMb(), "MB"};
}

//===----------------------------------------------------------------------===//
// Probes
//===----------------------------------------------------------------------===//

namespace {

/// Recompiles one specialization through the public pipeline pieces the
/// JIT uses (bitcode read, RCF + LB, O3, backend) to split backend time.
bool compileForStats(const Instance &I, const LaunchSpec &L, uint32_t Threads,
                     BackendStats &Stats) {
  const DeviceImage &Img = I.Prog.Image;
  auto SIt = Img.JitSections.find(L.Symbol);
  auto DIt = Img.JitDataGlobals.find(L.Symbol);
  const std::vector<uint8_t> *Bitcode =
      SIt != Img.JitSections.end()      ? &SIt->second
      : DIt != Img.JitDataGlobals.end() ? &DIt->second
                                        : nullptr;
  if (!Bitcode)
    return false;
  pir::Context Ctx;
  BitcodeReadResult R = readBitcode(Ctx, *Bitcode);
  pir::Function *F = R ? R.M->getFunction(L.Symbol) : nullptr;
  if (!F)
    return false;
  specializeArguments(*F, specKey(I, L, Threads).FoldedArgs);
  specializeLaunchBounds(*F, Threads);
  buildO3Pipeline(O3Options{})->run(*R.M);
  compileKernel(*F, getTarget(I.Arch), &Stats);
  return true;
}

} // namespace

void perfbench::runProbes(Context &C,
                          const std::vector<const ProgramInfo *> &Programs,
                          bool RecordedBlock) {
  C.Sampling = false;
  std::map<std::string, Metric> &PL = C.Out.PerLayer;
  std::string Dir = C.Opts.WorkDir + "/probe";
  resetDirectory(Dir);
  const Dim3 One{1, 1, 1};
  constexpr int Rounds = 1000;

  std::vector<double> HitMicros, DirectMicros;
  BackendStats Total;
  uint64_t Spills = 0;
  for (GpuArch Arch : Arches) {
    std::unique_ptr<Device> Dev = makeDevice(C, Arch, SmallDeviceBytes);
    for (const ProgramInfo *P : Programs) {
      Instance I(*P, Arch);
      I.Dev = Dev.get();
      I.compile(C, true);
      I.makeRuntime(C, Dir, false);
      if (!I.load(C) || !I.upload(C)) {
        C.Out.fail(I.label() + ": probe set-up failed");
        continue;
      }
      for (size_t SpecIndex : P->Specs) {
        const LaunchSpec &L = P->Launches[SpecIndex];
        std::string Error;
        // Codegen split on the specialization the workload compiles.
        BackendStats BS;
        uint32_t Threads =
            RecordedBlock ? static_cast<uint32_t>(L.Block.count()) : 1;
        if (!compileForStats(I, L, Threads, BS)) {
          C.Out.fail(I.label() + " @" + L.Symbol + ": codegen probe failed");
          continue;
        }
        Total.ISelSeconds += BS.ISelSeconds;
        Total.RegAllocSeconds += BS.RegAllocSeconds;
        Total.PtxEmitSeconds += BS.PtxEmitSeconds;
        Total.PtxAsmSeconds += BS.PtxAsmSeconds;
        Spills += BS.RA.SpilledValues;

        // Hit path: a JIT memory-hit launch against a direct launch of the
        // identical cached object, same grid and arguments, interleaved.
        if (!I.launch(C, L, One, One, Error)) { // warm: compile once
          C.Out.fail(Error);
          continue;
        }
        std::optional<CachedCode> Code =
            I.Jit->cache().lookupEntry(computeSpecializationHash(specKey(I, L, 1)));
        LoadedKernel *K = nullptr;
        if (!Code || gpuModuleLoad(*Dev, &K, Code->Object) != GpuError::Success) {
          C.Out.fail(I.label() + " @" + L.Symbol +
                     ": cached object not found for the direct launch");
          continue;
        }
        std::vector<KernelArg> A = I.args(L);
        for (int R = 0; R != Rounds; ++R) {
          double T0 = nowSeconds();
          bool Ok = I.launch(C, L, One, One, Error);
          double T1 = nowSeconds();
          uint64_t JitInstrs = Dev->LastLaunch.TotalInstrs;
          Ok = Ok && gpuLaunchKernel(*Dev, *K, One, One, A) == GpuError::Success;
          double T2 = nowSeconds();
          if (!Ok || Dev->LastLaunch.TotalInstrs != JitInstrs) {
            C.Out.fail(I.label() + " @" + L.Symbol +
                       ": direct launch differs from the JIT launch");
            break;
          }
          HitMicros.push_back((T1 - T0) * 1e6);
          DirectMicros.push_back((T2 - T1) * 1e6);
        }
      }
    }
  }
  std::vector<double> Diff;
  for (size_t I = 0; I != HitMicros.size(); ++I)
    Diff.push_back(HitMicros[I] - DirectMicros[I]);
  PL["jit.hit_overhead_us"] = {percentile(Diff, 0.5), "us"};
  PL["gpu.launch_self_us"] = {percentile(DirectMicros, 0.5), "us"};
  PL["codegen.isel_s"] = {Total.ISelSeconds, "s"};
  PL["codegen.regalloc_s"] = {Total.RegAllocSeconds, "s"};
  PL["codegen.ptx_emit_s"] = {Total.PtxEmitSeconds, "s"};
  PL["codegen.ptx_asm_s"] = {Total.PtxAsmSeconds, "s"};
  PL["codegen.spills"] = {static_cast<double>(Spills), "count"};
  fs::removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

void perfbench::addLayerMetrics(Context &C, double WindowSeconds,
                                double UntracedSeconds) {
  std::map<std::string, Metric> &PL = C.Out.PerLayer;
  const LayerTotals &T = C.Layers;
  std::map<std::string, double> Total = C.Spans.totalSeconds();
  std::map<std::string, double> Self = C.Spans.selfSeconds();
  auto Span = [&](const char *Name) {
    auto It = Total.find(Name);
    return It == Total.end() ? 0.0 : It->second;
  };

  PL["gpu.device_init_s"] = {Span("gpu.device_init"), "s"};
  PL["gpu.upload_s"] = {Span("gpu.upload"), "s"};
  double Exec = T.JitLaunchWall - T.JitInLaunch + Span("gpu.launch");
  PL["gpu.exec_s"] = {Exec, "s"};
  PL["gpu.sim_instr"] = {static_cast<double>(T.SimInstr), "count"};
  PL["gpu.sim_minstr_per_s"] = {
      Exec > 0 ? static_cast<double>(T.SimInstr) / Exec * 1e-6 : 0, "Minstr/s"};
  PL["gpu.sim_device_s"] = {T.SimDeviceSeconds, "s"};

  PL["hecbench.build_s"] = {Span("hecbench.build_module"), "s"};
  PL["jit.aot_compile_s"] = {Span("jit.aot_compile"), "s"};
  PL["jit.runtime_init_s"] = {Span("jit.runtime_init"), "s"};
  PL["jit.program_load_s"] = {Span("jit.program_load"), "s"};
  PL["jit.bitcode_fetch_s"] = {T.Jit.BitcodeFetchSeconds, "s"};
  PL["jit.bitcode_parse_s"] = {T.Jit.BitcodeParseSeconds, "s"};
  PL["jit.link_globals_s"] = {T.Jit.LinkGlobalsSeconds, "s"};
  PL["jit.specialize_s"] = {T.Jit.SpecializeSeconds, "s"};
  PL["jit.optimize_s"] = {T.Jit.OptimizeSeconds, "s"};
  PL["jit.analyze_s"] = {T.Jit.AnalyzeSeconds, "s"};
  PL["jit.backend_s"] = {T.Jit.BackendSeconds, "s"};
  PL["jit.compilations"] = {static_cast<double>(T.Jit.Compilations), "count"};
  PL["jit.bitcode_parses"] = {static_cast<double>(T.Jit.BitcodeParses),
                              "count"};
  for (const char *Pass : {"inline", "mem2reg", "instcombine", "simplifycfg",
                           "cse", "licm", "dce", "loop-unroll"}) {
    auto It = T.Jit.O3PassSeconds.find(Pass);
    PL[std::string("o3.") + Pass + "_s"] = {
        It == T.Jit.O3PassSeconds.end() ? 0.0 : It->second, "s"};
  }

  // A repeated launch is served from the device's loaded-kernel table
  // before the CodeCache is consulted, so the memory level has no lookup
  // timer: its cost is jit.hit_overhead_us. Memory hits count every launch
  // that neither compiled nor read the disk.
  PL["cache.lookup_disk_us"] = {
      T.LookupCount[1] ? T.LookupSeconds[1] /
                             static_cast<double>(T.LookupCount[1]) * 1e6
                       : 0,
      "us"};
  PL["cache.lookup_miss_us"] = {
      T.LookupCount[2] ? T.LookupSeconds[2] /
                             static_cast<double>(T.LookupCount[2]) * 1e6
                       : 0,
      "us"};
  uint64_t MemHits =
      T.Jit.Launches - T.Jit.Compilations - T.Cache.PersistentHits;
  PL["cache.mem_hits"] = {static_cast<double>(MemHits), "count"};
  PL["cache.disk_hits"] = {static_cast<double>(T.Cache.PersistentHits),
                           "count"};
  PL["cache.misses"] = {static_cast<double>(T.Cache.Misses), "count"};
  PL["cache.insertions"] = {static_cast<double>(T.Cache.Insertions), "count"};
  PL["cache.hit_ratio"] = {
      T.Jit.Launches ? static_cast<double>(MemHits + T.Cache.PersistentHits) /
                           static_cast<double>(T.Jit.Launches)
                     : 0,
      "ratio"};
  PL["verify.s"] = {Span("verify.output"), "s"};

  // Self-time split of the traced window by layer. The JIT hit path has no
  // runtime timer; its share is the probe's per-hit overhead times the
  // memory hits, moved from the launch remainder to the jit layer.
  double HitPath =
      std::max(0.0, PL.count("jit.hit_overhead_us")
                        ? PL["jit.hit_overhead_us"].Value * 1e-6
                        : 0.0) *
      static_cast<double>(MemHits);
  HitPath = std::min(HitPath, T.JitLaunchWall - T.JitInLaunch);
  double Gpu = Span("gpu.device_init") + Span("gpu.upload") +
               Span("gpu.teardown") + Exec - HitPath;
  double Jit = Span("jit.aot_compile") + Span("jit.runtime_init") +
               Span("jit.cache_clear") + Span("jit.program_load") +
               T.JitInLaunch + HitPath;
  double Unattributed = 0;
  for (const auto &[Name, Seconds] : Self)
    if (Name.rfind("bench.", 0) == 0)
      Unattributed += Seconds;
  auto Frac = [&](double S) {
    return WindowSeconds > 0 ? S / WindowSeconds : 0;
  };
  PL["layer.gpu_frac"] = {Frac(Gpu), "ratio"};
  PL["layer.jit_frac"] = {Frac(Jit), "ratio"};
  PL["layer.hecbench_frac"] = {Frac(Span("hecbench.build_module")), "ratio"};
  PL["layer.verify_frac"] = {Frac(Span("verify.output")), "ratio"};
  PL["layer.trace_frac"] = {Frac(Span("trace.sample")), "ratio"};
  PL["trace.unattributed_frac"] = {Frac(Unattributed), "ratio"};
  PL["trace.overhead_frac"] = {
      UntracedSeconds > 0 ? WindowSeconds / UntracedSeconds - 1 : 0, "ratio"};
  PL["trace.spans"] = {static_cast<double>(C.Spans.spans().size()), "count"};
}
