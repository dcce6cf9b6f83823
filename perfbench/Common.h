//===- perfbench/Common.h - Shared machinery of the benchmark -------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the run options, timing and summary
/// statistics, the result sheet every metric goes through, the self-time
/// analysis of an obs::Tracer, and spawning this executable as a child
/// process (repeated set-ups and the native disk-cache reload).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_PERFBENCH_COMMON_H
#define SIMDIZE_PERFBENCH_COMMON_H

#include "obs/Trace.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// One invocation: `perfbench --workload W --seed N --seconds S --trace T
/// --scratch DIR`.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Private directory of this run (native cache, TMPDIR, socket, child
  /// output); created by main and removed when the run ends.
  std::string WorkDir;
  /// Child-process role (internal): "setup" repeats the workload's timed
  /// set-up, "reload" is cold-compile's native disk-cache reload.
  std::string Child;
  /// The child's native cache directory.
  std::string CacheDir;
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

inline double nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}

/// \name Summary statistics (by value: callers keep their sample order)
/// @{
double median(std::vector<double> V);
/// Linear-interpolated quantile, \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
/// The median over \p Slices contiguous, equal slices of \p V (in sample
/// order) of each slice's \p Q quantile, so that a burst of machine noise
/// confined to one slice of the run does not move it.
double slicedQuantile(const std::vector<double> &V, double Q,
                      size_t Slices = 10);
double geomean(const std::vector<double> &V);
double mean(const std::vector<double> &V);
/// NaN when either side has no variance or fewer than two points.
double pearson(const std::vector<double> &X, const std::vector<double> &Y);
/// Pearson over average ranks (ties share their mean rank).
double spearman(const std::vector<double> &X, const std::vector<double> &Y);
/// @}

/// Every number one run reports. The last stdout line is the JSON result:
/// the end-to-end metrics when untraced, the per-layer metrics when
/// traced, each over a fixed name list shared by all workloads (a layer a
/// workload leaves idle reads 0). The lines before it are the readable
/// sheet: the workload's own metric names, units and sample counts, and
/// for each per-layer metric the end-to-end metric it should move.
class Results {
public:
  explicit Results(const Options &O) : O(O) {}

  void endToEnd(const std::string &Name, double Value);
  void layer(const std::string &Name, double Value);
  /// A line of the readable sheet only.
  void note(const std::string &Name, double Value, const char *Unit,
            const std::string &Detail = "");
  void text(const std::string &Line);

  void attempted(int64_t N) { Attempted += N; }
  /// Records \p N wrong outputs (or failed operations) with the reason.
  void fail(const std::string &Why, int64_t N = 1);
  int64_t failures() const { return Failed; }

  /// Prints the sheet and the JSON line; returns the exit code (1 on any
  /// failure or missing metric).
  int finish() const;

private:
  const Options &O;
  std::map<std::string, double> E2E, Layers;
  std::vector<std::string> Sheet;
  int64_t Attempted = 0;
  int64_t Failed = 0;
};

/// Self time of every span in a tracer, keyed "<cat>/<name>": a span's
/// duration minus the part its direct children cover, nested per thread
/// by interval containment. Durations keep the tracer's microsecond grain.
struct SpanStats {
  int64_t Calls = 0;
  double SelfUs = 0;
  std::vector<double> DurUs; ///< Inclusive duration of each call.
};
std::map<std::string, SpanStats> analyzeTrace(const simdize::obs::Tracer &T);

/// Self time per call of \p Key, 0 when no such span was recorded.
double selfUsPerCall(const std::map<std::string, SpanStats> &S,
                     const std::string &Key);

/// One sheet line per span: calls and total self time.
void noteSpans(Results &R, const std::map<std::string, SpanStats> &S);

/// Reports the compiler and VM-check layers (parser.parse_us through
/// sim.compare_us) from the program's own spans in \p S.
void compilerLayers(Results &R, const std::map<std::string, SpanStats> &S);

/// Runs \p Argv (argv[0] looked up on PATH) with stdout and stderr
/// written to \p OutPath; waits for it, killing it after \p TimeoutS.
/// Returns its exit status, or -1 when it could not run or was killed.
int runProcess(const std::vector<std::string> &Argv,
               const std::string &OutPath, double TimeoutS);

/// Runs this executable with \p Args as a child process and returns its
/// stdout, or nullopt when it failed.
std::optional<std::string> runSelf(const Options &O,
                                   const std::vector<std::string> &Args,
                                   double TimeoutS = 150);

/// The contents of \p Path ("" when unreadable).
std::string readFile(const std::string &Path);

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per next(), and restores its affinity when destroyed. On a shared
/// host one CPU can run slow for seconds while a neighbour loads its core;
/// rotating makes every run sample all CPUs alike, so a median moves with
/// the host as a whole rather than with the CPU a run happened to land on.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void next();

private:
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// Makes a fresh empty directory \p Name under the work directory and
/// returns its path.
std::string freshDir(const Options &O, const std::string &Name);

/// Points the native tier's on-disk cache at \p Dir. Takes effect for the
/// next compile; the in-process handle cache is unaffected.
void useNativeCache(const std::string &Dir);

/// \name The three workloads and their child roles
/// @{
void runKernels(const Options &O, Results &R);
void runColdCompile(const Options &O, Results &R);
void runServe(const Options &O, Results &R);
/// Child roles print one JSON line on stdout and return the exit code.
int kernelsSetupChild(const Options &O);
int coldReloadChild(const Options &O);
/// @}

} // namespace perfbench

#endif // SIMDIZE_PERFBENCH_COMMON_H
