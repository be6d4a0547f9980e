//===- Bench.h - the repo benchmark's shared types --------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark program, its workloads and its self-test:
/// run options, the metric report, the span recorder that produces the
/// traced run's per-layer split, and the output goldens.
///
/// Every layer is timed from outside, around calls to its public
/// functions. Spans are recorded only when tracing is on; the end-to-end
/// numbers always come from an untraced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host seconds.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Expected output digests, keyed "<program>/<arch>/<buffer>".
using Goldens = std::map<std::string, std::string>;

/// Reads a goldens file ("<program> <arch> <buffer> <hex digest>" lines).
/// Returns false when the file is missing or malformed.
bool readGoldens(const std::string &Path, Goldens &Out, std::string *Error);

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for persistent caches and the trace file.
  std::string WorkDir;
  Goldens Expected;
  /// Where the traced run writes its chrome trace (empty: not written).
  std::string TracePath;
  /// Reduced run for the self-test: every workload uses only these
  /// programs and traced runs do less fixed work. Empty means the full
  /// benchmark.
  std::vector<std::string> OnlyPrograms;
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Outcome of one benchmark run.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False when any output check failed or an exact count drifted.
  bool Correct = true;
  std::vector<std::string> Errors;
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> PerLayer;

  void fail(const std::string &Why) {
    ++Failed;
    Correct = false;
    if (Errors.size() < 32)
      Errors.push_back(Why);
  }
  /// Counts one attempted operation that failed if \p Ok is false.
  void check(bool Ok, const std::string &Why) {
    ++Attempted;
    if (!Ok)
      fail(Why);
  }
  /// Records an exact-count drift (nondeterminism) without an operation.
  void drift(const std::string &Why) {
    Correct = false;
    if (Errors.size() < 32)
      Errors.push_back("nondeterminism: " + Why);
  }
};

/// Renders the result line: {"correct", "attempted", "failed", "metrics"}
/// with the end-to-end metrics, or the per-layer ones when \p PerLayer.
std::string renderResult(const Report &R, bool PerLayer);

/// The names of the workloads, in the order the doc lists them.
const std::vector<std::string> &workloadNames();

/// Runs one workload. Unknown names return false.
bool runWorkload(const Options &Opts, Report &Out);

/// Recomputes the table2 output goldens with the reference IR interpreter
/// and writes them to \p Path.
bool regenerateGoldens(const std::string &Path, std::string *Error);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span log of the traced run: name, start, end, parent and run
/// id per span, written out as a chrome trace when the run ends. Names must
/// be string literals. Disabled recorders cost one branch per span.
class SpanRecorder {
public:
  struct Record {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    int32_t Parent; // index into spans(), -1 for a root
    uint32_t RunId;
  };

  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }
  /// Starts a new run id; spans opened afterwards carry it.
  void nextRun() { ++RunId; }

  int32_t open(const char *Name);
  void close(int32_t Index);

  const std::vector<Record> &spans() const { return Spans; }

  /// Self time per span name: duration minus the part covered by direct
  /// children, summed over every span of that name (seconds).
  std::map<std::string, double> selfSeconds() const;
  /// Total duration per span name (seconds).
  std::map<std::string, double> totalSeconds() const;

  /// Writes a chrome://tracing "trace event format" file.
  bool writeChromeTrace(const std::string &Path) const;

  /// RAII span.
  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name)
        : R(R), Index(R.Enabled ? R.open(Name) : -1) {}
    ~Scope() {
      if (Index >= 0)
        R.close(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &R;
    int32_t Index;
  };

private:
  bool Enabled;
  uint32_t RunId = 0;
  std::vector<Record> Spans;
  std::vector<int32_t> Stack;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
