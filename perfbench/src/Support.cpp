//===- Support.cpp - result rendering, goldens and spans ---------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perfbench;

namespace {

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

std::string perfbench::renderResult(const Report &R, bool PerLayer) {
  const std::map<std::string, Metric> &Metrics =
      PerLayer ? R.PerLayer : R.EndToEnd;
  bool Correct = R.Correct;
  std::string M;
  for (const auto &[Name, Value] : Metrics) {
    // JSON has no NaN/Inf; a metric that is not finite is a failed run.
    double V = Value.Value;
    if (!std::isfinite(V)) {
      Correct = false;
      V = 0;
    }
    if (!M.empty())
      M += ", ";
    M += jsonString(Name) + ": {\"value\": " + jsonNumber(V) +
         ", \"unit\": " + jsonString(Value.Unit) + "}";
  }
  return std::string("{\"correct\": ") + (Correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(R.Attempted) +
         ", \"failed\": " + std::to_string(R.Failed) + ", \"metrics\": {" + M +
         "}}";
}

bool perfbench::readGoldens(const std::string &Path, Goldens &Out,
                            std::string *Error) {
  std::ifstream In(Path);
  if (!In) {
    if (Error)
      *Error = "cannot read goldens file " + Path;
    return false;
  }
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string Program, Arch, Buffer, Digest, Extra;
    if (!(SS >> Program >> Arch >> Buffer >> Digest) || (SS >> Extra)) {
      if (Error)
        *Error = Path + ":" + std::to_string(LineNo) + ": malformed line";
      return false;
    }
    Out[Program + "/" + Arch + "/" + Buffer] = Digest;
  }
  if (Out.empty()) {
    if (Error)
      *Error = "goldens file " + Path + " holds no digests";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SpanRecorder
//===----------------------------------------------------------------------===//

namespace {
uint64_t monotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
} // namespace

int32_t SpanRecorder::open(const char *Name) {
  int32_t Parent = Stack.empty() ? -1 : Stack.back();
  Spans.push_back(Record{Name, monotonicNs(), 0, Parent, RunId});
  int32_t Index = static_cast<int32_t>(Spans.size() - 1);
  Stack.push_back(Index);
  return Index;
}

void SpanRecorder::close(int32_t Index) {
  Spans[Index].EndNs = monotonicNs();
  // Spans close in LIFO order on the single launching thread.
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

std::map<std::string, double> SpanRecorder::totalSeconds() const {
  std::map<std::string, double> Out;
  for (const Record &S : Spans)
    Out[S.Name] += static_cast<double>(S.EndNs - S.StartNs) * 1e-9;
  return Out;
}

std::map<std::string, double> SpanRecorder::selfSeconds() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Record &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    uint64_t Self = Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
    Out[Spans[I].Name] += static_cast<double>(Self) * 1e-9;
  }
  return Out;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fputs("{\"traceEvents\": [\n", F);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Record &S = Spans[I];
    std::string Name = S.Name;
    std::string Cat = Name.substr(0, Name.find('.'));
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"run\": %u}}\n",
                 I ? "," : "", S.Name, Cat.c_str(),
                 static_cast<double>(S.StartNs - Base) * 1e-3,
                 static_cast<double>(S.EndNs - S.StartNs) * 1e-3, I,
                 static_cast<int>(S.Parent), S.RunId);
  }
  std::fputs("], \"displayTimeUnit\": \"ms\"}\n", F);
  return std::fclose(F) == 0;
}
