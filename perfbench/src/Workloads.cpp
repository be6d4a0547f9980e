//===- Workloads.cpp - table2, cold-start and hot-launch ---------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Every workload is a closed loop driven by one launching thread. The seed
// only reorders the generated inputs; every output is checked. An untraced
// run loops for the requested seconds and reports the end-to-end metrics.
// A traced run does a fixed amount of work twice, untraced then traced, and
// reports the per-layer split of the traced half.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "gpu/Runtime.h"
#include "ir/Context.h"
#include "ir/Interpreter.h"
#include "ir/Module.h"
#include "support/FileSystem.h"
#include "support/Trace.h"

#include <cstdio>
#include <fstream>

using namespace perfbench;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::hecbench;

namespace {

/// Deterministic facts of one unit of work (a table2 pass, a cold-start
/// round, a hot-launch cycle): every unit of a run and every run of a
/// build must reproduce them exactly.
struct ExactCounts {
  uint64_t SimInstr = 0;
  uint64_t Compilations = 0;
  uint64_t BitcodeParses = 0;
  uint64_t MemoryHits = 0, DiskHits = 0, Misses = 0;
  /// Simulated device seconds, summed in a fixed order.
  double DeviceSeconds = 0;

  bool operator==(const ExactCounts &O) const {
    return SimInstr == O.SimInstr && Compilations == O.Compilations &&
           BitcodeParses == O.BitcodeParses && MemoryHits == O.MemoryHits &&
           DiskHits == O.DiskHits && Misses == O.Misses &&
           DeviceSeconds == O.DeviceSeconds;
  }
  std::string str() const {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "instr=%llu compiles=%llu parses=%llu mem=%llu disk=%llu "
                  "miss=%llu device_s=%.17g",
                  (unsigned long long)SimInstr,
                  (unsigned long long)Compilations,
                  (unsigned long long)BitcodeParses,
                  (unsigned long long)MemoryHits, (unsigned long long)DiskHits,
                  (unsigned long long)Misses, DeviceSeconds);
    return Buf;
  }
};

void addStats(ExactCounts &E, JitRuntime &J) {
  JitRuntimeStats S = J.stats();
  CodeCacheStats CS = J.cache().stats();
  E.Compilations += S.Compilations;
  E.BitcodeParses += S.BitcodeParses;
  E.MemoryHits += CS.MemoryHits;
  E.DiskHits += CS.PersistentHits;
  E.Misses += CS.Misses;
}

/// Checks each unit's counts against the run's first unit.
void checkExact(Context &C, std::optional<ExactCounts> &First,
                const ExactCounts &Unit, const char *What) {
  if (!First) {
    First = Unit;
    return;
  }
  if (!(*First == Unit))
    C.Out.drift(std::string(What) + " counts changed: " + First->str() +
                " vs " + Unit.str());
}

/// Compares an instance's buffer digests against \p Expected.
bool digestsMatch(Context &C, const Instance &I,
                  const std::map<std::string, std::string> &Expected,
                  const std::string &What) {
  for (const auto &[Key, Digest] : I.digests()) {
    auto It = Expected.find(Key);
    if (It == Expected.end() || It->second != Digest) {
      C.Out.Errors.push_back(What + ": digest mismatch for " + Key);
      return false;
    }
  }
  return true;
}

void addSpeedups(const std::vector<double> &Cold,
                 const std::vector<double> &Warm, std::vector<double> &ColdOut,
                 std::vector<double> &WarmOut) {
  ColdOut.push_back(geomean(Cold));
  WarmOut.push_back(geomean(Warm));
}

//===----------------------------------------------------------------------===//
// table2
//===----------------------------------------------------------------------===//

/// The paper's evaluation: every program on both arches under AOT, Proteus
/// with an empty persistent cache and Proteus with a warm one (Proteus+$),
/// through the steps of hecbench::runBenchmark.
class Table2 {
public:
  explicit Table2(Context &C)
      : C(C), Programs(loadPrograms(C.Opts.OnlyPrograms)), Rng(C.Opts.Seed),
        Cpu(!C.Opts.Trace) {}

  enum class Mode { Aot, Cold, Warm };

  struct RunOutcome {
    double Wall = 0, Setup = 0, EndToEnd = 0, Device = 0;
    uint64_t Instrs = 0;
  };

  RunOutcome runProgram(const ProgramInfo &P, GpuArch Arch, Mode M,
                        const std::string &CacheDir, ExactCounts &Exact) {
    static const char *ModeNames[] = {"AOT", "Proteus", "Proteus+$"};
    RunOutcome R;
    C.Spans.nextRun();
    SpanRecorder::Scope Run(C.Spans, "bench.run");
    double T0 = nowSeconds();
    Instance I(P, Arch);
    std::string Label = I.label() + " " + ModeNames[static_cast<int>(M)];
    std::unique_ptr<Device> Dev;
    I.compile(C, M != Mode::Aot);
    Dev = makeDevice(C, Arch, HarnessDeviceBytes);
    I.Dev = Dev.get();
    if (M != Mode::Aot)
      I.makeRuntime(C, CacheDir, M == Mode::Cold);
    bool Ok = I.load(C) && I.upload(C);
    R.Setup = nowSeconds() - T0;

    std::string Error;
    if (Ok) {
      Dev->resetSimulatedTime();
      for (const LaunchSpec &L : P.Launches) {
        if (!I.launch(C, L, L.Grid, L.Block, Error)) {
          Ok = false;
          C.Out.Errors.push_back(Error);
          break;
        }
        R.Instrs += Dev->LastLaunch.TotalInstrs;
        // Sampled-simulation extrapolation, as runBenchmark accounts it.
        uint64_t Scale = P.B->timeScale();
        if (Scale > 1) {
          double D = Dev->LastLaunch.DurationSec * static_cast<double>(Scale - 1);
          Dev->addSimulatedSeconds(D);
          Dev->addKernelSeconds(D);
        }
      }
    }
    if (Ok) {
      R.Device = Dev->simulatedSeconds();
      R.EndToEnd = R.Device + (I.Jit ? hostJitSeconds(I.Jit->stats()) : 0);
      if (I.Jit)
        addStats(Exact, *I.Jit);
      SpanRecorder::Scope S(C.Spans, "verify.output");
      BufferReader Reader(*Dev, I.Ptrs, I.Sizes);
      if (!P.B->verifyOutput(Reader)) {
        Ok = false;
        C.Out.Errors.push_back(Label + ": verifyOutput failed");
      } else if (!digestsMatch(C, I, C.Opts.Expected, Label)) {
        Ok = false;
      }
    }
    {
      SpanRecorder::Scope S(C.Spans, "gpu.teardown");
      I.unload();
      Dev.reset();
    }
    R.Wall = nowSeconds() - T0;
    C.Out.check(Ok, Label + " failed");
    return R;
  }

  /// Every (program, arch) pair, in a seed-drawn order.
  std::vector<std::pair<size_t, GpuArch>> drawPairs() {
    std::vector<std::pair<size_t, GpuArch>> Pairs;
    for (GpuArch Arch : Arches)
      for (size_t P = 0; P != Programs.size(); ++P)
        Pairs.push_back({P, Arch});
    shuffle(Pairs, Rng);
    return Pairs;
  }

  /// Per-pass accumulators.
  struct PassFacts {
    ExactCounts Exact;
    std::map<std::string, double> Device; // summed in key order
    std::vector<double> Cold, Warm;       // paper-metric ratios per pair

    void finish() {
      for (const auto &[Key, D] : Device)
        Exact.DeviceSeconds += D;
    }
  };

  /// Runs one pair under AOT, Proteus and Proteus+$.
  void runPair(size_t PIndex, GpuArch Arch, PassFacts &F) {
    const ProgramInfo &P = Programs[PIndex];
    std::string Dir = C.Opts.WorkDir + "/table2/" + P.B->name() + "-" +
                      gpuArchName(Arch);
    fs::createDirectories(Dir);
    RunOutcome Runs[3];
    for (Mode M : {Mode::Aot, Mode::Cold, Mode::Warm}) {
      Cpu.next();
      RunOutcome &R = Runs[static_cast<int>(M)];
      R = runProgram(P, Arch, M, Dir, F.Exact);
      Setups.push_back(R.Setup);
      size_t Op = (PIndex * 2 + (Arch == GpuArch::AmdGcnSim ? 0 : 1)) * 3 +
                  static_cast<size_t>(M);
      Latency.add(Op, R.Wall * 1e6);
      F.Exact.SimInstr += R.Instrs;
    }
    const RunOutcome &Aot = Runs[0], &Cl = Runs[1], &Wm = Runs[2];
    std::string Key = P.B->name() + "/" + gpuArchName(Arch);
    F.Device[Key + "/aot"] = Aot.Device;
    F.Device[Key + "/cold"] = Cl.Device;
    F.Device[Key + "/warm"] = Wm.Device;
    if (Cl.EndToEnd > 0 && Wm.EndToEnd > 0) {
      F.Cold.push_back(Aot.EndToEnd / Cl.EndToEnd);
      F.Warm.push_back(Aot.EndToEnd / Wm.EndToEnd);
    }
  }

  /// One pass over every pair.
  void pass() {
    std::vector<std::pair<size_t, GpuArch>> Pairs = drawPairs();
    SpanRecorder::Scope S(C.Spans, "bench.pass");
    double T0 = nowSeconds();
    PassFacts F;
    for (const auto &[PIndex, Arch] : Pairs)
      runPair(PIndex, Arch, F);
    Rates.push_back(static_cast<double>(3 * Pairs.size()) /
                    (nowSeconds() - T0));
    F.finish();
    addSpeedups(F.Cold, F.Warm, SpeedupCold, SpeedupWarm);
    checkExact(C, FirstExact, F.Exact, "table2 pass");
  }

  Context &C;
  std::vector<ProgramInfo> Programs;
  std::mt19937_64 Rng;
  std::vector<double> Setups, SpeedupCold, SpeedupWarm;
  std::vector<double> Rates;
  LatencyLog Latency;
  CpuRotation Cpu;
  std::optional<ExactCounts> FirstExact;
};

//===----------------------------------------------------------------------===//
// cold-start
//===----------------------------------------------------------------------===//

/// An application's first run with an empty cache: a fresh JitRuntime per
/// program and arch on an empty directory launches every JIT
/// specialization on a one-thread grid (write round: each first launch is
/// a compile plus a persistent write), then a second fresh runtime on the
/// same directory repeats the list (read round: each first launch is a
/// disk hit). Each specialization is launched twice in a row, so the
/// memory level serves the second launch. Programs are built and
/// AOT-compiled once per run: an application's build is not part of its
/// start.
class ColdStart {
public:
  struct Item {
    size_t Pair;
    size_t Launch; // index into the program's launches
  };

  explicit ColdStart(Context &C)
      : C(C), Programs(loadPrograms(C.Opts.OnlyPrograms)), Rng(C.Opts.Seed),
        Dir(C.Opts.WorkDir + "/cold-start"), Cpu(!C.Opts.Trace) {
    for (GpuArch Arch : Arches)
      for (size_t P = 0; P != Programs.size(); ++P)
        Pairs.push_back({P, Arch});
    for (size_t Pair = 0; Pair != Pairs.size(); ++Pair)
      for (size_t L : Programs[Pairs[Pair].first].Specs)
        Items.push_back({Pair, L});
    shuffle(Items, Rng);
  }

  static constexpr Dim3 One{1, 1, 1};

  /// Runs the item list on \p Inst (indexed by pair); records the first
  /// launch of each item in \p FirstLaunch when given.
  bool launchItems(const std::vector<Instance *> &Inst,
                   LatencyLog *FirstLaunch,
                   std::vector<double> &DeviceSeconds) {
    std::string Error;
    for (size_t Index = 0; Index != Items.size(); ++Index) {
      const Item &It = Items[Index];
      Instance &I = *Inst[It.Pair];
      const LaunchSpec &L = I.P.Launches[It.Launch];
      for (int Rep = 0; Rep != 2; ++Rep) {
        double T0 = nowSeconds();
        bool Ok = I.launch(C, L, One, One, Error);
        double T1 = nowSeconds();
        C.Out.check(Ok, Error);
        if (!Ok)
          return false;
        DeviceSeconds[It.Pair] += I.Dev->LastLaunch.DurationSec;
        RoundExact.SimInstr += I.Dev->LastLaunch.TotalInstrs;
        if (Rep == 0 && FirstLaunch)
          FirstLaunch->add(Index, (T1 - T0) * 1e6);
      }
    }
    return true;
  }

  /// AOT reference (digests and device seconds of the same launch list),
  /// then the build and AOT compile of the JIT instances.
  bool prepare() {
    SpanRecorder::Scope S(C.Spans, "bench.reference");
    Reference.clear();
    Jit.clear();
    JitPtrs.clear();
    std::vector<std::unique_ptr<Device>> Devs;
    std::vector<std::unique_ptr<Instance>> Inst;
    std::vector<Instance *> Ptrs;
    for (GpuArch Arch : Arches)
      Devs.push_back(makeDevice(C, Arch, SmallDeviceBytes));
    for (const auto &[P, Arch] : Pairs) {
      Inst.push_back(std::make_unique<Instance>(Programs[P], Arch));
      Instance &I = *Inst.back();
      I.Dev = Devs[Arch == GpuArch::AmdGcnSim ? 0 : 1].get();
      I.compile(C, false);
      if (!I.load(C) || !I.upload(C))
        return false;
      Ptrs.push_back(&I);
    }
    AotDevice.assign(Pairs.size(), 0);
    if (!launchItems(Ptrs, nullptr, AotDevice))
      return false;
    for (Instance *I : Ptrs)
      for (const auto &[K, D] : I->digests())
        Reference[K] = D;
    for (const auto &[P, Arch] : Pairs) {
      Jit.push_back(std::make_unique<Instance>(Programs[P], Arch));
      Jit.back()->compile(C, true);
      JitPtrs.push_back(Jit.back().get());
    }
    return true;
  }

  /// One write round plus one read round.
  void round() {
    if (JitPtrs.size() != Pairs.size())
      return; // prepare() failed and counted the failure
    Cpu.next();
    SpanRecorder::Scope Round(C.Spans, "bench.round");
    C.Spans.nextRun();
    RoundExact = ExactCounts();
    double T0 = nowSeconds();
    {
      SpanRecorder::Scope S(C.Spans, "jit.cache_clear");
      resetDirectory(Dir);
    }
    std::vector<std::unique_ptr<Device>> Devs;
    const std::vector<Instance *> &Ptrs = JitPtrs;
    bool Ok = true;
    for (GpuArch Arch : Arches)
      Devs.push_back(makeDevice(C, Arch, SmallDeviceBytes));
    for (Instance *I : Ptrs) {
      I->Dev = Devs[I->Arch == GpuArch::AmdGcnSim ? 0 : 1].get();
      I->Ptrs.clear();
      I->Sizes.clear();
      I->makeRuntime(C, Dir, false);
      Ok = Ok && I->load(C) && I->upload(C);
    }
    Setups.push_back(nowSeconds() - T0);
    std::vector<double> ColdDevice(Pairs.size(), 0), WarmDevice(Pairs.size(), 0);
    std::vector<double> ColdE2E, WarmE2E;
    uint64_t Before = Latency.count();
    {
      SpanRecorder::Scope S(C.Spans, "bench.write");
      Ok = Ok && launchItems(Ptrs, &Latency, ColdDevice);
    }
    uint64_t Compiles = Latency.count() - Before;
    Ok = Ok && verify(Ptrs, "write round");
    for (size_t I = 0; Ok && I != Ptrs.size(); ++I) {
      ColdE2E.push_back(hostJitSeconds(Ptrs[I]->Jit->stats()) + ColdDevice[I]);
      addStats(RoundExact, *Ptrs[I]->Jit);
    }
    {
      SpanRecorder::Scope S(C.Spans, "bench.read");
      for (Instance *I : Ptrs) {
        if (!Ok)
          break;
        I->unload();
        I->makeRuntime(C, Dir, false);
        Ok = I->load(C) && I->upload(C);
      }
      Ok = Ok && launchItems(Ptrs, nullptr, WarmDevice);
    }
    Ok = Ok && verify(Ptrs, "read round");
    for (size_t I = 0; Ok && I != Ptrs.size(); ++I) {
      WarmE2E.push_back(hostJitSeconds(Ptrs[I]->Jit->stats()) + WarmDevice[I]);
      addStats(RoundExact, *Ptrs[I]->Jit);
    }
    if (!Ok)
      C.Out.fail("cold-start round failed");
    {
      SpanRecorder::Scope S(C.Spans, "gpu.teardown");
      for (Instance *I : Ptrs)
        I->unload();
      Devs.clear();
    }
    if (Ok) {
      std::vector<double> Cold, Warm;
      for (size_t I = 0; I != Pairs.size(); ++I) {
        Cold.push_back(AotDevice[I] / ColdE2E[I]);
        Warm.push_back(AotDevice[I] / WarmE2E[I]);
      }
      addSpeedups(Cold, Warm, SpeedupCold, SpeedupWarm);
      for (size_t I = 0; I != Pairs.size(); ++I)
        RoundExact.DeviceSeconds += ColdDevice[I] + WarmDevice[I];
      checkExact(C, FirstExact, RoundExact, "cold-start round");
      Rates.push_back(static_cast<double>(Compiles) / (nowSeconds() - T0));
      if (C.Sampling)
        C.Layers.SimDeviceSeconds += RoundExact.DeviceSeconds;
    }
  }

  bool verify(const std::vector<Instance *> &Ptrs, const char *What) {
    SpanRecorder::Scope S(C.Spans, "verify.output");
    bool Ok = true;
    for (Instance *I : Ptrs) {
      bool Match = digestsMatch(C, *I, Reference, std::string(What) + " " +
                                                      I->label());
      C.Out.check(Match, I->label() + ": " + What + " output differs from AOT");
      Ok = Ok && Match;
    }
    return Ok;
  }

  Context &C;
  std::vector<ProgramInfo> Programs;
  std::mt19937_64 Rng;
  std::string Dir;
  std::vector<std::pair<size_t, GpuArch>> Pairs;
  std::vector<Item> Items;
  std::map<std::string, std::string> Reference;
  std::vector<double> AotDevice;
  /// The JIT instances, compiled once; each round loads them afresh.
  std::vector<std::unique_ptr<Instance>> Jit;
  std::vector<Instance *> JitPtrs;
  std::vector<double> Setups, SpeedupCold, SpeedupWarm;
  std::vector<double> Rates;
  LatencyLog Latency;
  CpuRotation Cpu;
  ExactCounts RoundExact;
  std::optional<ExactCounts> FirstExact;
};

//===----------------------------------------------------------------------===//
// hot-launch
//===----------------------------------------------------------------------===//

/// The steady state: the JIT specializations of the launch-bound programs
/// stay resident in the memory cache and are relaunched round-robin, in a
/// seed-drawn order, on a one-thread grid. ADAM and LULESH are the
/// programs whose one-thread launch executes fewer than 100 simulated
/// instructions (35 and 68); the others run 500 to 14000, and their
/// simulation would hide the launch path this workload isolates.
class HotLaunch {
public:
  static constexpr Dim3 One{1, 1, 1};
  /// Set-up repetitions of a measured run (setup_s is their median). The
  /// first starts from an empty persistent cache and compiles; the rest
  /// find their code on disk. A traced run brings the application up twice
  /// (one compile, one disk hit) so the steady state dominates its split.
  static constexpr int SetupRepetitions = 15;
  static constexpr int TracedSetupRepetitions = 2;
  /// Cycles after warm-up whose output is checked against AOT.
  static constexpr int CheckedCycles = 8;
  /// How long the loop stays on one CPU before rotating to the next.
  static constexpr double CpuWindowSeconds = 0.25;

  struct Slot {
    size_t Pair;
    size_t Launch;
  };

  explicit HotLaunch(Context &C)
      : C(C), Programs(loadPrograms(C.Opts.OnlyPrograms.empty()
                                        ? std::vector<std::string>{"ADAM",
                                                                   "LULESH"}
                                        : C.Opts.OnlyPrograms)),
        Rng(C.Opts.Seed), Dir(C.Opts.WorkDir + "/hot-launch"),
        Cpu(!C.Opts.Trace) {
    for (GpuArch Arch : Arches)
      for (size_t P = 0; P != Programs.size(); ++P)
        Pairs.push_back({P, Arch});
    for (size_t Pair = 0; Pair != Pairs.size(); ++Pair)
      for (size_t L : Programs[Pairs[Pair].first].Specs)
        Slots.push_back({Pair, L});
    shuffle(Slots, Rng);
  }

  /// Brings the application up \p Repetitions times and keeps the last
  /// instance set, warmed (every slot launched once). Also runs the AOT
  /// reference on separate buffers of the same devices.
  bool setUp(int Repetitions) {
    C.SampleEachLaunch = true;
    resetDirectory(Dir);
    ColdHostJit.assign(Pairs.size(), 0);
    for (int Rep = 0; Rep != Repetitions; ++Rep) {
      C.Spans.nextRun();
      SpanRecorder::Scope S(C.Spans, "bench.setup");
      Inst.clear();
      Devs.clear();
      double T0 = nowSeconds();
      for (GpuArch Arch : Arches)
        Devs.push_back(makeDevice(C, Arch, SmallDeviceBytes));
      bool Ok = true;
      for (const auto &[P, Arch] : Pairs) {
        Inst.push_back(std::make_unique<Instance>(Programs[P], Arch));
        Instance &I = *Inst.back();
        I.Dev = Devs[Arch == GpuArch::AmdGcnSim ? 0 : 1].get();
        I.compile(C, true);
        I.makeRuntime(C, Dir, false);
        Ok = Ok && I.load(C) && I.upload(C);
      }
      Setups.push_back(nowSeconds() - T0);
      std::string Error;
      for (const Slot &S : Slots) {
        Instance &I = *Inst[S.Pair];
        bool Launched = Ok && I.launch(C, I.P.Launches[S.Launch], One, One, Error);
        C.Out.check(Launched, Error);
        Ok = Ok && Launched;
      }
      if (!Ok)
        return false;
      if (Rep == 0)
        for (size_t I = 0; I != Pairs.size(); ++I)
          ColdHostJit[I] = hostJitSeconds(Inst[I]->Jit->stats());
    }
    return reference();
  }

  bool reference() {
    SpanRecorder::Scope S(C.Spans, "bench.reference");
    std::vector<std::unique_ptr<Instance>> Ref;
    AotPerLaunch.assign(Slots.size(), 0);
    std::string Error;
    for (const auto &[P, Arch] : Pairs) {
      Ref.push_back(std::make_unique<Instance>(Programs[P], Arch));
      Instance &I = *Ref.back();
      I.Dev = Devs[Arch == GpuArch::AmdGcnSim ? 0 : 1].get();
      I.compile(C, false);
      if (!I.load(C) || !I.upload(C))
        return false;
    }
    for (int Cycle = 0; Cycle != CheckedCycles + 1; ++Cycle)
      for (size_t K = 0; K != Slots.size(); ++K) {
        Instance &I = *Ref[Slots[K].Pair];
        if (!I.launch(C, I.P.Launches[Slots[K].Launch], One, One, Error)) {
          C.Out.fail(Error);
          return false;
        }
        AotPerLaunch[K] = I.Dev->LastLaunch.DurationSec;
      }
    Reference.clear();
    for (auto &I : Ref) {
      std::map<std::string, std::string> D = I->digests();
      for (auto &[K, V] : D) {
        // The reference buffers live on the same device as the JIT
        // instance's; key them by the JIT instance's buffer names.
        Reference[K] = V;
      }
    }
    return true;
  }

  /// Relaunches the slots round-robin until \p Deadline or \p MaxLaunches.
  /// A traced loop samples the runtimes' counters once per SampleCycles.
  void loop(double Deadline, uint64_t MaxLaunches) {
    constexpr uint64_t SampleCycles = 256;
    // Launches take about a microsecond: per-launch counter snapshots would
    // cost more than the launch, so the loop samples per batch instead.
    C.SampleEachLaunch = false;
    const bool Timed = !C.Opts.Trace;
    SpanRecorder::Scope Loop(C.Spans, "bench.hot_loop");
    std::vector<JitRuntimeStats> Before;
    for (auto &I : Inst)
      Before.push_back(I->Jit->stats());
    std::vector<std::vector<KernelArg>> Args;
    for (const Slot &S : Slots)
      Args.push_back(Inst[S.Pair]->args(Inst[S.Pair]->P.Launches[S.Launch]));
    std::vector<Sample> Batch;
    auto SampleAll = [&] {
      std::vector<Sample> Now;
      for (auto &I : Inst)
        Now.push_back(I->sample(C));
      for (size_t I = 0; I != Batch.size(); ++I)
        C.Layers.account(Batch[I], Now[I]);
      Batch = std::move(Now);
    };
    if (C.Sampling)
      SampleAll();
    std::vector<double> Device(Pairs.size(), 0);
    std::vector<uint64_t> Count(Slots.size(), 0);
    uint64_t Launches = 0;
    uint64_t CycleInstr = 0;
    std::string Error;
    double WindowStart = 0;
    uint64_t WindowLaunches = 0;
    bool Ok = true;
    // Cycles run in batches: the first batch ends where the AOT reference
    // does, for the output check; the CPU rotates and a traced loop samples
    // counters between batches, and records one span per batch rather
    // than per launch.
    const bool Tracing = C.Spans.enabled();
    for (uint64_t Batch = 0, Cycle = 0; Ok; ++Batch) {
      double Now = nowSeconds();
      if (Now >= WindowStart + CpuWindowSeconds) {
        if (WindowStart > 0)
          Rates.push_back(static_cast<double>(Launches - WindowLaunches) /
                          (Now - WindowStart));
        Cpu.next();
        WindowStart = nowSeconds();
        WindowLaunches = Launches;
      }
      uint64_t End = Cycle + (Batch == 0 ? CheckedCycles : SampleCycles);
      {
        SpanRecorder::Scope S(C.Spans, "jit.launch_batch");
        C.Spans.setEnabled(false);
        for (; Ok && Cycle != End; ++Cycle) {
          uint64_t Instr = 0;
          for (size_t K = 0; K != Slots.size(); ++K) {
            Instance &I = *Inst[Slots[K].Pair];
            const LaunchSpec &L = I.P.Launches[Slots[K].Launch];
            double L0 = Timed ? nowSeconds() : 0;
            bool Launched = I.launch(C, L, One, One, Args[K], Error);
            ++Launches;
            if (!Launched) {
              C.Out.check(false, Error);
              Ok = false;
              break;
            }
            if (Timed)
              Latency.add(K, (nowSeconds() - L0) * 1e6);
            Device[Slots[K].Pair] += I.Dev->LastLaunch.DurationSec;
            Instr += I.Dev->LastLaunch.TotalInstrs;
            ++Count[K];
          }
          if (!Ok)
            break;
          C.Out.Attempted += Slots.size();
          if (Cycle == 0)
            CycleInstr = Instr;
          else if (Instr != CycleInstr)
            C.Out.drift("hot-launch cycle instructions changed");
        }
        C.Spans.setEnabled(Tracing);
      }
      if (C.Sampling)
        SampleAll();
      if (Batch == 0) {
        SpanRecorder::Scope V(C.Spans, "verify.output");
        for (auto &I : Inst) {
          bool Match = digestsMatch(C, *I, Reference, "hot-launch");
          C.Out.check(Match, I->label() + ": hot-launch output differs from AOT");
          Ok = Ok && Match;
        }
      }
      if (Launches >= MaxLaunches || nowSeconds() >= Deadline)
        break;
    }
    if (C.Sampling)
      for (double D : Device)
        C.Layers.SimDeviceSeconds += D;
    // Paper metric over the loop: AOT device time of the same launches
    // against JIT host time plus JIT device time.
    std::vector<double> AotPair(Pairs.size(), 0);
    for (size_t K = 0; K != Slots.size(); ++K)
      AotPair[Slots[K].Pair] += AotPerLaunch[K] * static_cast<double>(Count[K]);
    std::vector<double> Cold, Warm;
    ExactCounts Exact;
    for (size_t I = 0; I != Pairs.size(); ++I) {
      JitRuntimeStats After = Inst[I]->Jit->stats();
      double Hot = hostJitSeconds(After) - hostJitSeconds(Before[I]);
      double AotWarmup = 0;
      for (size_t K = 0; K != Slots.size(); ++K)
        if (Slots[K].Pair == I)
          AotWarmup += AotPerLaunch[K];
      Warm.push_back(AotPair[I] / (Hot + Device[I]));
      Cold.push_back((AotPair[I] + AotWarmup) /
                     (ColdHostJit[I] + AotWarmup + Hot + Device[I]));
      Exact.Compilations += After.Compilations - Before[I].Compilations;
      Exact.BitcodeParses += After.BitcodeParses - Before[I].BitcodeParses;
    }
    addSpeedups(Cold, Warm, SpeedupCold, SpeedupWarm);
    Exact.SimInstr = CycleInstr;
    checkExact(C, FirstExact, Exact, "hot-launch cycle");
    if (Exact.Compilations != 0)
      C.Out.drift("hot-launch compiled in its steady state");
  }

  Context &C;
  std::vector<ProgramInfo> Programs;
  std::mt19937_64 Rng;
  std::string Dir;
  std::vector<std::pair<size_t, GpuArch>> Pairs;
  std::vector<Slot> Slots;
  std::vector<std::unique_ptr<Device>> Devs;
  std::vector<std::unique_ptr<Instance>> Inst;
  std::map<std::string, std::string> Reference;
  std::vector<double> AotPerLaunch, ColdHostJit;
  std::vector<double> Setups, SpeedupCold, SpeedupWarm;
  std::vector<double> Rates;
  LatencyLog Latency;
  CpuRotation Cpu;
  std::optional<ExactCounts> FirstExact;
};

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

/// Wall seconds of the untraced and traced halves of a traced run.
struct TraceHalves {
  double UntracedSeconds = 0, TracedSeconds = 0;
};

/// Which part of a traced run a unit of work belongs to.
enum Half { WarmUp = 0, Untraced = 1, Traced = 2 };

/// Runs \p Unit(0, WarmUp) once untimed, then \p Unit(0 .. Units-1) twice
/// each, alternating untraced and traced, so first-use costs stay out of
/// both halves and drift on the machine falls on both alike.
template <typename Fn> TraceHalves tracedRun(Context &C, Fn Unit, size_t Units) {
  TraceHalves H;
  Unit(0, WarmUp);
  for (size_t U = 0; U != Units; ++U) {
    double T0 = nowSeconds();
    Unit(U, Untraced);
    H.UntracedSeconds += nowSeconds() - T0;

    C.Spans.setEnabled(true);
    C.Sampling = true;
    T0 = nowSeconds();
    {
      SpanRecorder::Scope W(C.Spans, "bench.window");
      Unit(U, Traced);
    }
    H.TracedSeconds += nowSeconds() - T0;
    C.Sampling = false;
    C.Spans.setEnabled(false);
  }
  return H;
}

/// Writes and validates the chrome trace, runs the probes and adds every
/// per-layer metric.
void finishTrace(Context &C, const TraceHalves &H,
                 const std::vector<const ProgramInfo *> &Probed,
                 bool RecordedBlock) {
  if (!C.Opts.TracePath.empty()) {
    std::string Error;
    if (!C.Spans.writeChromeTrace(C.Opts.TracePath) ||
        !trace::validateTraceFile(C.Opts.TracePath,
                                  {"bench.window", "jit.launch",
                                   "gpu.device_init", "jit.runtime_init"},
                                  &Error))
      C.Out.drift("trace file rejected: " + Error);
  }
  runProbes(C, Probed, RecordedBlock);
  addLayerMetrics(C, H.TracedSeconds, H.UntracedSeconds);
  C.Out.PerLayer["failed_frac"] = {
      C.Out.Attempted ? static_cast<double>(C.Out.Failed) /
                            static_cast<double>(C.Out.Attempted)
                      : 0,
      "ratio"};
}

std::vector<const ProgramInfo *> pointers(const std::vector<ProgramInfo> &V) {
  std::vector<const ProgramInfo *> Out;
  for (const ProgramInfo &P : V)
    Out.push_back(&P);
  return Out;
}

bool runTable2(Context &C) {
  Table2 W(C);
  if (C.Opts.Trace) {
    // One pass, each pair run untraced and then traced.
    std::vector<std::pair<size_t, GpuArch>> Pairs = W.drawPairs();
    Table2::PassFacts Facts[3];
    TraceHalves H = tracedRun(
        C,
        [&](size_t I, Half Part) {
          W.runPair(Pairs[I].first, Pairs[I].second, Facts[Part]);
        },
        Pairs.size());
    Facts[Untraced].finish();
    Facts[Traced].finish();
    if (!(Facts[Untraced].Exact == Facts[Traced].Exact))
      C.Out.drift("table2 traced pass counts changed: " +
                  Facts[Untraced].Exact.str() + " vs " +
                  Facts[Traced].Exact.str());
    C.Layers.SimDeviceSeconds = Facts[Traced].Exact.DeviceSeconds;
    finishTrace(C, H, pointers(W.Programs), true);
    return true;
  }
  // Whole passes only, as many as fit the requested time to the nearest
  // pass, so the pass count does not flip on small changes in pass time.
  double T0 = nowSeconds();
  double Elapsed = 0;
  do {
    W.pass();
    Elapsed = nowSeconds() - T0;
  } while (Elapsed + Elapsed / static_cast<double>(W.Rates.size()) / 2 <
           C.Opts.Seconds);
  addEndToEnd(C, W.Setups, W.Rates, W.Latency, W.SpeedupCold, W.SpeedupWarm);
  return true;
}

bool runColdStart(Context &C) {
  ColdStart W(C);
  if (C.Opts.Trace) {
    // The first unit of each half also builds the instances and the AOT
    // reference, so the run's set-up is traced too.
    size_t Rounds = C.Opts.OnlyPrograms.empty() ? 10 : 1;
    TraceHalves H = tracedRun(
        C,
        [&](size_t I, Half) {
          if (I == 0 && !W.prepare())
            C.Out.fail("cold-start reference run failed");
          W.round();
        },
        Rounds);
    finishTrace(C, H, pointers(W.Programs), false);
    return true;
  }
  if (!W.prepare()) {
    C.Out.fail("cold-start reference run failed");
    return true;
  }
  double T0 = nowSeconds();
  do
    W.round();
  while (nowSeconds() - T0 < C.Opts.Seconds);
  addEndToEnd(C, W.Setups, W.Rates, W.Latency, W.SpeedupCold, W.SpeedupWarm);
  return true;
}

bool runHotLaunch(Context &C) {
  HotLaunch W(C);
  if (C.Opts.Trace) {
    uint64_t Launches = C.Opts.OnlyPrograms.empty() ? 500000 : 1000;
    TraceHalves H = tracedRun(
        C,
        [&](size_t, Half) {
          if (W.setUp(HotLaunch::TracedSetupRepetitions))
            W.loop(1e300, Launches);
        },
        2);
    finishTrace(C, H, pointers(W.Programs), false);
    return true;
  }
  if (!W.setUp(HotLaunch::SetupRepetitions)) {
    C.Out.fail("hot-launch set-up failed");
    return true;
  }
  W.loop(nowSeconds() + C.Opts.Seconds, UINT64_MAX);
  addEndToEnd(C, W.Setups, W.Rates, W.Latency, W.SpeedupCold, W.SpeedupWarm);
  return true;
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"table2", "cold-start",
                                                 "hot-launch"};
  return Names;
}

bool perfbench::runWorkload(const Options &Opts, Report &Out) {
  Context C(Opts, Out, false);
  fs::createDirectories(Opts.WorkDir);
  if (Opts.Workload == "table2")
    return runTable2(C);
  if (Opts.Workload == "cold-start")
    return runColdStart(C);
  if (Opts.Workload == "hot-launch")
    return runHotLaunch(C);
  return false;
}

//===----------------------------------------------------------------------===//
// Goldens
//===----------------------------------------------------------------------===//

bool perfbench::regenerateGoldens(const std::string &Path, std::string *Error) {
  std::vector<ProgramInfo> Programs = loadPrograms({});
  std::ofstream Out(Path);
  if (!Out) {
    *Error = "cannot write " + Path;
    return false;
  }
  Out << "# Output digests (64-bit word-wise hash of each buffer's final bytes) of every\n"
         "# table2 program and arch, computed by the reference IR interpreter.\n"
         "# Regenerate with: python3 perfbench/run.py --regen-goldens\n";
  Report Dummy;
  Options Opts;
  Context C(Opts, Dummy, false);
  for (GpuArch Arch : Arches) {
    for (const ProgramInfo &P : Programs) {
      Instance I(P, Arch);
      I.compile(C, false);
      Device Dev(getTarget(Arch), HarnessDeviceBytes);
      I.Dev = &Dev;
      if (!I.load(C) || !I.upload(C)) {
        *Error = I.label() + ": set-up failed";
        return false;
      }
      // Same replay as the interpreter check of hecbench::runBenchmark:
      // every thread of every launch, in order, over a copy of memory.
      std::vector<uint8_t> Memory = Dev.memory();
      pir::IRInterpreter Interp(Memory);
      for (const LaunchSpec &L : P.Launches) {
        pir::Function *F = I.M->getFunction(L.Symbol);
        std::vector<uint64_t> Args;
        for (const KernelArg &A : I.args(L))
          Args.push_back(A.Bits);
        for (uint32_t Blk = 0; Blk != L.Grid.X; ++Blk)
          for (uint32_t Ty = 0; Ty != L.Block.Y; ++Ty)
            for (uint32_t Tx = 0; Tx != L.Block.X; ++Tx) {
              pir::ThreadGeometry G;
              G.ThreadIdx[0] = Tx;
              G.ThreadIdx[1] = Ty;
              G.BlockIdx[0] = Blk;
              G.BlockDim[0] = L.Block.X;
              G.BlockDim[1] = L.Block.Y;
              G.GridDim[0] = L.Grid.X;
              pir::InterpResult R = Interp.run(*F, Args, G);
              if (!R.Ok) {
                *Error = I.label() + " @" + L.Symbol + ": " + R.Error;
                return false;
              }
            }
      }
      Dev.memory() = std::move(Memory);
      for (const auto &[Key, Digest] : I.digests()) {
        std::string K = Key;
        for (char &Ch : K)
          if (Ch == '/')
            Ch = ' ';
        Out << K << " " << Digest << "\n";
      }
      std::fprintf(stderr, "goldens: %s done\n", I.label().c_str());
    }
  }
  return static_cast<bool>(Out);
}
