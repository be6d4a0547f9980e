//===- main.cpp - the repo benchmark's command line --------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
//   proteus_perfbench --workload <table2|cold-start|hot-launch> --seed <n>
//                     --seconds <s> --trace <0|1> --root <dir>
//   proteus_perfbench --regen-goldens --root <dir>
//
// <dir> is the benchmark's own directory (it holds goldens.txt); scratch
// files go to --work <dir>. The last line of standard output is the result
// object; diagnostics go to standard error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/FileSystem.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace perfbench;
using namespace proteus;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "proteus_perfbench: %s\n"
               "usage: proteus_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --root DIR --work DIR\n"
               "       proteus_perfbench --regen-goldens --root DIR\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  std::string Root, Work;
  bool Regen = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--regen-goldens") {
      Regen = true;
    } else if (A == "--workload" && (V = Value())) {
      Opts.Workload = V;
    } else if (A == "--seed" && (V = Value())) {
      Opts.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds" && (V = Value())) {
      Opts.Seconds = std::atof(V);
    } else if (A == "--trace" && (V = Value())) {
      Opts.Trace = std::strcmp(V, "0") != 0;
    } else if (A == "--root" && (V = Value())) {
      Root = V;
    } else if (A == "--work" && (V = Value())) {
      Work = V;
    } else {
      return usage(("bad argument " + A).c_str());
    }
  }
  if (Root.empty())
    return usage("--root is required");
  std::string GoldensPath = Root + "/goldens.txt";
  std::string Error;
  if (Regen) {
    if (!regenerateGoldens(GoldensPath, &Error)) {
      std::fprintf(stderr, "proteus_perfbench: %s\n", Error.c_str());
      return 1;
    }
    return 0;
  }
  if (Work.empty() || !(Opts.Seconds > 0))
    return usage("--work and a positive --seconds are required");
  if (!readGoldens(GoldensPath, Opts.Expected, &Error)) {
    std::fprintf(stderr, "proteus_perfbench: %s\n", Error.c_str());
    return 1;
  }
  Opts.WorkDir = Work + "/run";
  if (Opts.Trace)
    Opts.TracePath = Work + "/trace-" + Opts.Workload + ".json";
  fs::removeTree(Opts.WorkDir);

  Report R;
  if (!runWorkload(Opts, R))
    return usage(("unknown workload '" + Opts.Workload + "'").c_str());
  fs::removeTree(Opts.WorkDir);
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "proteus_perfbench: %s\n", E.c_str());
  std::printf("%s\n", renderResult(R, Opts.Trace).c_str());
  return 0;
}
