//===- launch_stats_golden_test.cpp - pinned simulator counters ----------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Launches every HeCBench-sim program on both arches, once with the AOT
// binaries and once through the JIT, and compares every LaunchStats field of
// every launch (plus each run's simulated device time) with the pinned
// values in golden/launch_stats.txt. Counts must match exactly; the
// floating-point outputs of the performance model are compared as bit
// patterns. Any change to the executor, the L2 model or the perf model that
// moves a single counter fails here.
//
// Regenerate the golden file (only for an intended model change):
//   launch_stats_golden_test --regen-goldens <path>
//
//===----------------------------------------------------------------------===//

#include "gpu/Runtime.h"
#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "jit/AotCompiler.h"
#include "jit/JitRuntime.h"
#include "jit/Program.h"
#include "support/FileSystem.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::hecbench;

namespace {

std::string bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(B));
  return Buf;
}

/// One line per launch: every LaunchStats field, floats as bit patterns.
std::string formatStats(const std::string &Prefix, const LaunchStats &S) {
  std::ostringstream OS;
  OS << Prefix << " kernel=" << S.Kernel << " blocks=" << S.Blocks
     << " tpb=" << S.ThreadsPerBlock << " instrs=" << S.TotalInstrs
     << " valu=" << S.VALUInsts << " salu=" << S.SALUInsts
     << " ld=" << S.MemLoads << " st=" << S.MemStores
     << " spill_ld=" << S.SpillLoads << " spill_st=" << S.SpillStores
     << " atomics=" << S.Atomics << " br=" << S.Branches
     << " bar=" << S.Barriers << " trans=" << S.TranscendentalInsts
     << " div=" << S.DivInsts << " l2_hit=" << S.L2Hits
     << " l2_miss=" << S.L2Misses << " regs=" << S.RegsUsed
     << " spill_slots=" << S.SpillSlots << " lb=" << S.LaunchBoundsThreads
     << " occ=" << bitsOf(S.Occupancy) << " dur=" << bitsOf(S.DurationSec)
     << " ipc=" << bitsOf(S.IPC) << " valu_busy=" << bitsOf(S.VALUBusyPct)
     << " stall=" << bitsOf(S.StallPct);
  return OS.str();
}

/// Runs \p B on \p Arch (AOT or JIT launch list) and appends one line per
/// launch plus one summary line to \p Lines.
void runAndRecord(const Benchmark &B, GpuArch Arch, bool UseJit,
                  std::vector<std::string> &Lines) {
  const std::string Tag = B.name() + " " + gpuArchName(Arch) + " " +
                          (UseJit ? "jit" : "aot");
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M = B.buildModule(Ctx);
  AotOptions AO;
  AO.Arch = Arch;
  AO.EnableProteusExtensions = UseJit;
  CompiledProgram Prog = aotCompile(*M, AO);

  // Same device size as hecbench::runBenchmark: the scratch region the L2
  // model sees starts at the end of global memory.
  Device Dev(getTarget(Arch), 1ull << 28);
  std::string CacheDir = fs::makeTempDirectory("proteus-lsgold");
  std::unique_ptr<JitRuntime> Jit;
  if (UseJit) {
    JitConfig Config;
    Config.CacheDir = CacheDir;
    Jit = std::make_unique<JitRuntime>(Dev, Prog.ModuleId, Config);
    Jit->cache().clearPersistent();
  }
  LoadedProgram LP(Dev, Prog, Jit.get());
  ASSERT_TRUE(LP.ok()) << Tag << ": " << LP.error();

  std::map<std::string, DevicePtr> Ptrs;
  std::map<std::string, uint64_t> Sizes;
  for (const BufferSpec &BS : B.buffers()) {
    DevicePtr P = 0;
    ASSERT_EQ(gpuMalloc(Dev, &P, BS.Init.size()), GpuError::Success);
    gpuMemcpyHtoD(Dev, P, BS.Init.data(), BS.Init.size());
    Ptrs[BS.Name] = P;
    Sizes[BS.Name] = BS.Init.size();
  }

  Dev.resetSimulatedTime();
  size_t Index = 0;
  for (const LaunchSpec &L : B.launches()) {
    std::vector<KernelArg> Args;
    for (const ArgSpec &A : L.Args)
      Args.push_back(KernelArg{A.K == ArgSpec::Kind::Scalar
                                   ? A.Bits
                                   : Ptrs.at(A.BufferName) + A.ByteOffset});
    std::string Err;
    ASSERT_EQ(LP.launch(L.Symbol, L.Grid, L.Block, Args, &Err),
              GpuError::Success)
        << Tag << " @" << L.Symbol << ": " << Err;
    Lines.push_back(formatStats(Tag + " #" + std::to_string(Index++),
                                Dev.LastLaunch));
  }
  if (Jit)
    Jit->drain();
  Lines.push_back(Tag + " device_s=" + bitsOf(Dev.simulatedSeconds()) +
                  " kernel_s=" + bitsOf(Dev.kernelSeconds()));
  BufferReader Reader(Dev, Ptrs, Sizes);
  EXPECT_TRUE(B.verifyOutput(Reader)) << Tag;
  Jit.reset();
  fs::removeAllFiles(CacheDir);
}

std::vector<std::string> collectAll() {
  std::vector<std::string> Lines;
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim})
    for (const auto &B : allBenchmarks())
      for (bool UseJit : {false, true})
        runAndRecord(*B, Arch, UseJit, Lines);
  return Lines;
}

std::vector<std::string> readGolden(const std::string &Path) {
  std::vector<std::string> Lines;
  std::ifstream In(Path);
  for (std::string L; std::getline(In, L);)
    if (!L.empty() && L[0] != '#')
      Lines.push_back(L);
  return Lines;
}

TEST(LaunchStatsGolden, EveryProgramArchAndLaunchListMatches) {
  std::vector<std::string> Golden = readGolden(PROTEUS_LAUNCH_STATS_GOLDEN);
  ASSERT_FALSE(Golden.empty())
      << "missing golden file " << PROTEUS_LAUNCH_STATS_GOLDEN;
  std::vector<std::string> Got = collectAll();
  ASSERT_EQ(Got.size(), Golden.size()) << "launch count changed";
  size_t Mismatches = 0;
  for (size_t I = 0; I != Got.size(); ++I) {
    if (Got[I] == Golden[I])
      continue;
    if (++Mismatches <= 10)
      ADD_FAILURE() << "line " << I << "\n  want: " << Golden[I]
                    << "\n  got:  " << Got[I];
  }
  EXPECT_EQ(Mismatches, 0u);
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 3 && std::strcmp(argv[1], "--regen-goldens") == 0) {
    std::ofstream Out(argv[2]);
    Out << "# Every LaunchStats field of every launch of every HeCBench-sim\n"
           "# program x arch x {aot, jit}; floats as IEEE-754 bit patterns.\n"
           "# Regenerate: launch_stats_golden_test --regen-goldens <path>\n";
    for (const std::string &L : collectAll())
      Out << L << "\n";
    return Out ? 0 : 1;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
