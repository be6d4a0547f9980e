//===- selftest.cpp - the repo benchmark's self-test -------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
//   perfbench_selftest <benchmark dir> <scratch dir>
//
// A reduced run of every workload, untraced and traced, checking that:
//   1. every metric BENCHMARK.json names is emitted, with its unit;
//   2. the result line parses with JsonLite and reports no failure;
//   3. a deliberately corrupted golden digest is counted as a failure
//      (failed > 0, failed_frac > 0, correct false) instead of passing.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/FileSystem.h"
#include "support/JsonLite.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perfbench;
using namespace proteus;

namespace {

int Failures = 0;

void expect(bool Cond, const std::string &What) {
  if (!Cond) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What.c_str());
  }
}

/// name -> unit of one metric list of BENCHMARK.json.
std::map<std::string, std::string> declared(const json::Value &Doc,
                                            const char *List) {
  std::map<std::string, std::string> Out;
  const json::Value *L = Doc.find(List);
  if (L && L->isArray())
    for (const json::Value &M : L->Arr) {
      const json::Value *Name = M.find("name");
      const json::Value *Unit = M.find("unit");
      if (Name && Unit && Name->isString() && Unit->isString())
        Out[Name->Str] = Unit->Str;
    }
  return Out;
}

/// Runs one reduced workload and returns its parsed result line.
json::Value run(const Options &Base, const std::string &Workload, bool Trace,
                Report &R) {
  Options O = Base;
  O.Workload = Workload;
  O.Trace = Trace;
  if (Trace)
    O.TracePath = Base.WorkDir + "-" + Workload + ".json";
  expect(runWorkload(O, R), Workload + ": unknown workload");
  std::string Line = renderResult(R, Trace);
  json::ParseResult P = json::parse(Line);
  expect(P.Ok, Workload + ": result line does not parse: " + P.Error);
  return P.V;
}

void checkMetrics(const json::Value &Result,
                  const std::map<std::string, std::string> &Declared,
                  const std::string &What) {
  const json::Value *Metrics = Result.find("metrics");
  expect(Metrics && Metrics->isObject(), What + ": no metrics object");
  if (!Metrics)
    return;
  for (const auto &[Name, Unit] : Declared) {
    const json::Value *M = Metrics->find(Name);
    const json::Value *V = M ? M->find("value") : nullptr;
    const json::Value *U = M ? M->find("unit") : nullptr;
    expect(V && V->isNumber(), What + ": metric " + Name + " missing");
    expect(U && U->isString() && U->Str == Unit,
           What + ": metric " + Name + " lacks unit " + Unit);
  }
  expect(Metrics->Obj.size() == Declared.size(),
         What + ": emits metrics BENCHMARK.json does not declare");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3) {
    std::fprintf(stderr, "usage: perfbench_selftest <benchmark dir> <scratch dir>\n");
    return 2;
  }
  std::string Root = Argv[1], Work = Argv[2];
  std::optional<std::vector<uint8_t>> Spec = fs::readFile(Root + "/../BENCHMARK.json");
  expect(Spec.has_value(), "cannot read BENCHMARK.json");
  if (!Spec)
    return 1;
  json::ParseResult Doc = json::parse(
      std::string_view(reinterpret_cast<const char *>(Spec->data()), Spec->size()));
  expect(Doc.Ok, "BENCHMARK.json does not parse");
  auto EndToEnd = declared(Doc.V, "end_to_end");
  auto PerLayer = declared(Doc.V, "per_layer");
  expect(!EndToEnd.empty() && !PerLayer.empty(), "no metrics declared");

  Options Base;
  Base.Seed = 7;
  Base.Seconds = 0.2;
  Base.WorkDir = Work + "/run";
  Base.OnlyPrograms = {"ADAM"};
  std::string Error;
  expect(readGoldens(Root + "/goldens.txt", Base.Expected, &Error), Error);

  for (const std::string &W : workloadNames()) {
    for (bool Trace : {false, true}) {
      std::string What = W + (Trace ? " (traced)" : "");
      Report R;
      json::Value Result = run(Base, W, Trace, R);
      for (const std::string &E : R.Errors)
        std::fprintf(stderr, "  %s: %s\n", What.c_str(), E.c_str());
      const json::Value *Correct = Result.find("correct");
      const json::Value *Failed = Result.find("failed");
      const json::Value *Attempted = Result.find("attempted");
      expect(Correct && Correct->isBool() && Correct->B, What + ": not correct");
      expect(Failed && Failed->isNumber() && Failed->Num == 0,
             What + ": failed operations");
      expect(Attempted && Attempted->isNumber() && Attempted->Num >= 1,
             What + ": nothing attempted");
      checkMetrics(Result, Trace ? PerLayer : EndToEnd, What);
    }
  }

  // A corrupted golden must surface as a failure, never pass.
  Options Corrupt = Base;
  std::string Key = "ADAM/amdgcn-sim/p";
  expect(Corrupt.Expected.count(Key) == 1, "goldens lack " + Key);
  Corrupt.Expected[Key] = "0000000000000000";
  for (bool Trace : {false, true}) {
    Report R;
    json::Value Result = run(Corrupt, "table2", Trace, R);
    const json::Value *Failed = Result.find("failed");
    const json::Value *Correct = Result.find("correct");
    expect(Failed && Failed->Num > 0, "corrupted golden: no failure counted");
    expect(Correct && Correct->isBool() && !Correct->B,
           "corrupted golden: run still reported correct");
    if (Trace) {
      const json::Value *M = Result.find("metrics");
      const json::Value *FF = M ? M->find("failed_frac") : nullptr;
      const json::Value *V = FF ? FF->find("value") : nullptr;
      expect(V && V->Num > 0, "corrupted golden: failed_frac is 0");
    }
  }
  fs::removeTree(Work);
  std::printf("perfbench self-test: %s (%d failure(s))\n",
              Failures ? "FAILED" : "passed", Failures);
  return Failures ? 1 : 0;
}
