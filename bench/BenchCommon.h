//===- bench/BenchCommon.h - Shared helpers for the bench binaries -------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scheme enumeration and table formatting shared by the per-figure and
/// per-table bench executables.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_BENCH_BENCHCOMMON_H
#define SIMDIZE_BENCH_BENCHCOMMON_H

#include "harness/Experiment.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "support/Format.h"

#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

namespace simdize {
namespace bench {

/// Writes \p Text + '\n' to \p Path, checking every step through
/// fclose (which flushes, so a full device fails there); false, with a
/// stderr note, on any failure.
inline bool writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok = std::fputc('\n', F) != EOF && Ok;
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok)
    std::fprintf(stderr, "error: short write to %s\n", Path.c_str());
  return Ok;
}

/// Machine-readable run records for the bench mains: `--metrics=FILE`
/// dumps an obs::Registry JSON of every recorded suite next to the table
/// the harness prints. The flag parser doubles as the benches' CLI
/// contract — unknown flags and stray arguments are usage errors (exit 2
/// at the call site), mirroring simdize-tool and simdize-fuzz.
class BenchMetrics {
public:
  /// Returns false (after printing usage to stderr) on any argument other
  /// than --metrics=FILE.
  bool parseArgs(int Argc, char **Argv) {
    for (int K = 1; K < Argc; ++K) {
      const char *Arg = Argv[K];
      if (std::strncmp(Arg, "--metrics=", 10) == 0 && Arg[10] != '\0') {
        Path = Arg + 10;
        continue;
      }
      std::fprintf(stderr, "error: unexpected argument '%s'\n", Arg);
      std::fprintf(stderr, "usage: %s [--metrics=FILE]\n", Argv[0]);
      return false;
    }
    return true;
  }

  bool enabled() const { return !Path.empty(); }

  /// Records one suite row: gauges "<name>.opd" / ".opd_lb" / ".speedup"
  /// and the counter "<name>.failures". NaN gauges (all-failed suites)
  /// still serialize — the JSON writer emits them as null.
  void suite(const std::string &Name, const harness::SuiteResult &R) {
    if (!enabled())
      return;
    Reg.gauge(Name + ".opd", R.MeanOpd);
    Reg.gauge(Name + ".opd_lb", R.MeanOpdLB);
    Reg.gauge(Name + ".speedup", R.HarmonicSpeedup);
    Reg.count(Name + ".failures", R.Failures);
  }

  void gauge(const std::string &Name, double V) {
    if (enabled())
      Reg.gauge(Name, V);
  }

  void count(const std::string &Name, int64_t Delta) {
    if (enabled())
      Reg.count(Name, Delta);
  }

  /// Writes the registry JSON to the --metrics path; true when no output
  /// was requested. Call last — the result is the process exit status's
  /// I/O component.
  bool write() const {
    return !enabled() || writeTextFile(Path, Reg.toJson());
  }

private:
  obs::Registry Reg;
  std::string Path;
};

/// The one writer every BENCH_*.json artifact goes through: a common
///
///   {"bench":NAME, "timestamp":UNIX_SECONDS,
///    "gates":[{"name","value","threshold","passed"},...],
///    "rows":[...], ...extras}
///
/// envelope, so tools/simdize-report can aggregate any bench output and
/// diff it run over run without per-bench parsers. Gates carry their own
/// pass verdict — the bench decides the direction, the report only reads
/// it.
class BenchReport {
public:
  explicit BenchReport(std::string Bench) : Bench(std::move(Bench)) {}

  /// Records one gate. Gate values are scaled so that higher is better —
  /// what the report's run-over-run regression check assumes.
  void gate(const std::string &Name, double Value, double Threshold,
            bool Passed) {
    Gates.push_back({Name, Value, Threshold, Passed});
  }

  /// Appends one pre-rendered JSON object to "rows".
  void row(std::string RowJson) { Rows.push_back(std::move(RowJson)); }

  /// Adds one extra top-level member with a pre-rendered JSON value.
  void extra(const std::string &Key, std::string Json) {
    Extras.emplace_back(Key, std::move(Json));
  }

  bool allGatesPassed() const {
    for (const Gate &G : Gates)
      if (!G.Passed)
        return false;
    return true;
  }

  std::string toJson() const {
    std::string Out;
    obs::json::Writer W(Out);
    W.beginObject()
        .field("bench", Bench)
        .field("timestamp", static_cast<int64_t>(std::time(nullptr)));
    W.key("gates").beginArray();
    for (const Gate &G : Gates)
      W.beginObject()
          .field("name", G.Name)
          .field("value", G.Value)
          .field("threshold", G.Threshold)
          .field("passed", G.Passed)
          .endObject();
    W.endArray();
    W.key("rows").beginArray();
    for (const std::string &R : Rows)
      W.raw(R);
    W.endArray();
    for (const auto &[K, V] : Extras)
      W.key(K).raw(V);
    W.endObject();
    return Out;
  }

  /// Writes toJson() + '\n' to \p Path; false (with a stderr note) on
  /// I/O failure.
  bool write(const std::string &Path) const {
    return writeTextFile(Path, toJson());
  }

private:
  struct Gate {
    std::string Name;
    double Value;
    double Threshold;
    bool Passed;
  };

  std::string Bench;
  std::vector<Gate> Gates;
  std::vector<std::string> Rows;
  std::vector<std::pair<std::string, std::string>> Extras;
};

/// The twelve compile-time schemes of Figure 11/12: each policy bare, with
/// predictive commoning, and with software pipelining.
inline std::vector<pipeline::CompileRequest>
compileTimeSchemes(bool Reassoc, const Target &Tgt = {}) {
  std::vector<pipeline::CompileRequest> Schemes;
  for (policies::PolicyKind Policy : policies::allPolicies())
    for (harness::ReuseKind Reuse :
         {harness::ReuseKind::None, harness::ReuseKind::PC,
          harness::ReuseKind::SP}) {
      pipeline::CompileRequest S = harness::scheme(Policy, Reuse, Tgt);
      S.OffsetReassoc = Reassoc;
      Schemes.push_back(S);
    }
  return Schemes;
}

/// The runtime-alignment schemes: zero-shift only (Section 4.4).
inline std::vector<pipeline::CompileRequest>
runtimeSchemes(bool Reassoc, const Target &Tgt = {}) {
  std::vector<pipeline::CompileRequest> Schemes;
  for (harness::ReuseKind Reuse :
       {harness::ReuseKind::None, harness::ReuseKind::PC,
        harness::ReuseKind::SP}) {
    pipeline::CompileRequest S =
        harness::scheme(policies::PolicyKind::Zero, Reuse, Tgt);
    S.OffsetReassoc = Reassoc;
    Schemes.push_back(S);
  }
  return Schemes;
}

/// Prints one stacked-bar row of a Figure 11/12-style chart.
inline void printOpdRow(const std::string &Name,
                        const harness::SuiteResult &R) {
  if (R.Failures == R.LoopCount) {
    std::printf("  %-10s  all %u loops failed: %s\n", Name.c_str(),
                R.LoopCount, R.FirstError.c_str());
    return;
  }
  std::printf("  %-10s  opd %6.3f  = LB %6.3f + shift-overhead %5.3f "
              "+ compiler-overhead %5.3f   (speedup %5.2f, bound %5.2f)\n",
              Name.c_str(), R.MeanOpd, R.MeanOpdLB, R.MeanShiftOverhead,
              R.MeanCompilerOverhead, R.HarmonicSpeedup,
              R.HarmonicSpeedupLB);
}

} // namespace bench
} // namespace simdize

#endif // SIMDIZE_BENCH_BENCHCOMMON_H
