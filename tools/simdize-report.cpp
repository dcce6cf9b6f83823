//===- tools/simdize-report.cpp - Aggregate telemetry into a report -------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo's perf trajectory in one place: aggregates the artifacts the
/// benches and the compile server emit — BENCH_*.json envelopes (the
/// shared BenchCommon.h writer), google-benchmark BENCH_speed.json,
/// flight-recorder dumps, obs::Registry metrics JSON, and metrics JSONL
/// streams — into one markdown report with a gate table and, given a
/// baseline envelope, run-over-run deltas.
///
///   simdize-report [--out=FILE] [--baseline=FILE] [--max-regress=R]
///                  INPUT...
///
/// Inputs are classified by content, not by name, so any mix of files
/// works. --baseline=FILE names a previous BENCH envelope (or a file
/// holding several, one per line); a current gate whose value fell more
/// than R (default 0.10) below its baseline counts as a regression —
/// gate values are scaled higher-is-better by the benches, which is what
/// makes one direction check sound.
///
/// Exit status: 0 clean; 1 when any gate failed or any regression
/// exceeded the threshold (the CI contract); 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace simdize;
using obs::json::Value;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--out=FILE] [--baseline=FILE] [--max-regress=R] "
               "INPUT...\n",
               Argv0);
  return 2;
}

struct GateRow {
  std::string Bench;
  std::string Name;
  double Value = 0.0;
  double Threshold = 0.0;
  bool Passed = false;
};

std::string fmtNum(double V) { return strf("%.4g", V); }

const Value *member(const Value &V, const char *Key) { return V.find(Key); }

double numOr(const Value *V, double Default) {
  return V && V->isNumber() ? V->Num : Default;
}

std::string strOr(const Value *V, const std::string &Default) {
  return V && V->isString() ? V->Str : Default;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// What one input file turned out to be.
enum class InputKind { Envelope, GoogleBenchmark, Flight, Registry, Jsonl };

const char *inputKindName(InputKind K) {
  switch (K) {
  case InputKind::Envelope:
    return "bench envelope";
  case InputKind::GoogleBenchmark:
    return "google-benchmark";
  case InputKind::Flight:
    return "flight-recorder dump";
  case InputKind::Registry:
    return "metrics registry";
  case InputKind::Jsonl:
    return "metrics JSONL";
  }
  return "unknown";
}

struct Input {
  std::string Path;
  InputKind Kind = InputKind::Registry;
  Value Doc;                ///< Whole-document inputs.
  std::vector<Value> Lines; ///< JSONL inputs.
};

/// Content classification: the flight dump may arrive bare (dumpToFile)
/// or wrapped in a `dump` response envelope.
std::optional<InputKind> classify(const Value &V) {
  if (!V.isObject())
    return std::nullopt;
  if (member(V, "bench") && member(V, "gates") && member(V, "rows"))
    return InputKind::Envelope;
  if (member(V, "context") && member(V, "benchmarks"))
    return InputKind::GoogleBenchmark;
  if (member(V, "capacity") && member(V, "records"))
    return InputKind::Flight;
  if (member(V, "flight"))
    return InputKind::Flight;
  if (member(V, "counters") || member(V, "histograms"))
    return InputKind::Registry;
  return std::nullopt;
}

/// The flight payload itself, unwrapping a `dump` response if needed.
const Value &flightOf(const Value &Doc) {
  const Value *Wrapped = member(Doc, "flight");
  return Wrapped && Wrapped->isObject() ? *Wrapped : Doc;
}

bool loadInput(const std::string &Path, Input &In, std::string &Err) {
  std::string Text;
  if (!readFile(Path, Text)) {
    Err = "cannot read " + Path;
    return false;
  }
  In.Path = Path;
  std::string ParseErr;
  if (std::optional<Value> V = obs::json::parse(Text, &ParseErr)) {
    std::optional<InputKind> K = classify(*V);
    if (!K) {
      Err = Path + ": unrecognized JSON shape";
      return false;
    }
    In.Kind = *K;
    In.Doc = std::move(*V);
    return true;
  }
  // Not one document: try JSONL — every non-empty line its own record.
  std::istringstream SS(Text);
  std::string Line;
  while (std::getline(SS, Line)) {
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    std::optional<Value> LV = obs::json::parse(Line);
    if (!LV) {
      Err = Path + ": neither JSON (" + ParseErr + ") nor JSONL";
      return false;
    }
    In.Lines.push_back(std::move(*LV));
  }
  if (In.Lines.empty()) {
    Err = Path + ": empty input";
    return false;
  }
  In.Kind = InputKind::Jsonl;
  return true;
}

void collectGates(const Value &Doc, std::vector<GateRow> &Gates) {
  std::string Bench = strOr(member(Doc, "bench"), "?");
  const Value *GV = member(Doc, "gates");
  if (!GV || !GV->isArray())
    return;
  for (const Value &G : GV->Arr) {
    GateRow R;
    R.Bench = Bench;
    R.Name = strOr(member(G, "name"), "?");
    R.Value = numOr(member(G, "value"), 0.0);
    R.Threshold = numOr(member(G, "threshold"), 0.0);
    const Value *P = member(G, "passed");
    R.Passed = P && P->isBool() && P->Bool;
    Gates.push_back(std::move(R));
  }
}

void sectionEnvelope(std::string &Md, const Input &In) {
  const Value &Doc = In.Doc;
  Md += strf("Bench `%s`", strOr(member(Doc, "bench"), "?").c_str());
  if (const Value *TS = member(Doc, "timestamp"))
    if (TS->isNumber())
      Md += strf(", timestamp %.0f", TS->Num);
  const Value *Rows = member(Doc, "rows");
  size_t N = Rows && Rows->isArray() ? Rows->Arr.size() : 0;
  Md += strf(", %zu row%s.\n\n", N, N == 1 ? "" : "s");
  if (!N)
    return;
  // Rows are flat objects of scalars; render the first few as a table
  // keyed by the first row's fields.
  const Value &First = Rows->Arr[0];
  if (!First.isObject() || First.Obj.empty())
    return;
  Md += "|";
  for (const auto &[K, V] : First.Obj)
    Md.append(" ").append(K).append(" |");
  Md += "\n|";
  for (size_t K = 0; K < First.Obj.size(); ++K)
    Md += "---|";
  Md += "\n";
  size_t Shown = std::min<size_t>(N, 20);
  for (size_t R = 0; R < Shown; ++R) {
    const Value &Row = Rows->Arr[R];
    Md += "|";
    for (const auto &[K, _] : First.Obj) {
      const Value *C = member(Row, K.c_str());
      if (C && C->isNumber())
        Md.append(" ").append(fmtNum(C->Num)).append(" |");
      else if (C && C->isString())
        Md.append(" ").append(C->Str).append(" |");
      else if (C && C->isBool())
        Md += C->Bool ? " true |" : " false |";
      else
        Md += " |";
    }
    Md += "\n";
  }
  if (Shown < N)
    Md += strf("\n(%zu more rows not shown)\n", N - Shown);
  Md += "\n";
}

void sectionGoogleBenchmark(std::string &Md, const Input &In) {
  const Value *BM = member(In.Doc, "benchmarks");
  if (!BM || !BM->isArray())
    return;
  Md += "| benchmark | real_time | unit | items/s |\n|---|---|---|---|\n";
  for (const Value &B : BM->Arr) {
    const Value *Items = member(B, "items_per_second");
    Md += strf("| %s | %s | %s | %s |\n",
               strOr(member(B, "name"), "?").c_str(),
               fmtNum(numOr(member(B, "real_time"), 0.0)).c_str(),
               strOr(member(B, "time_unit"), "ns").c_str(),
               Items && Items->isNumber() ? fmtNum(Items->Num).c_str() : "");
  }
  Md += "\n";
}

void sectionFlight(std::string &Md, const Input &In) {
  const Value &F = flightOf(In.Doc);
  Md += strf("Capacity %.0f, recorded %.0f, dropped %.0f.\n\n",
             numOr(member(F, "capacity"), 0.0),
             numOr(member(F, "recorded"), 0.0),
             numOr(member(F, "dropped"), 0.0));
  const Value *Recs = member(F, "records");
  if (!Recs || !Recs->isArray() || Recs->Arr.empty())
    return;
  Md += "| seq | kind | layer | outcome | policy | shifts | ms |\n"
        "|---|---|---|---|---|---|---|\n";
  // The most recent requests are what an incident dump is read for.
  size_t N = Recs->Arr.size();
  size_t From = N > 15 ? N - 15 : 0;
  for (size_t K = From; K < N; ++K) {
    const Value &R = Recs->Arr[K];
    Md += strf("| %.0f | %s | %s | %s | %s | %.0f | %s |\n",
               numOr(member(R, "seq"), 0.0),
               strOr(member(R, "kind"), "?").c_str(),
               strOr(member(R, "cache_layer"), "?").c_str(),
               strOr(member(R, "outcome"), "?").c_str(),
               strOr(member(R, "policy"), "").c_str(),
               numOr(member(R, "predicted_shifts"), -1.0),
               fmtNum(numOr(member(R, "duration_ms"), 0.0)).c_str());
  }
  if (From > 0)
    Md += strf("\n(%zu earlier records not shown)\n", From);
  Md += "\n";
}

void registryTables(std::string &Md, const Value &Doc) {
  const Value *Counters = member(Doc, "counters");
  if (Counters && Counters->isObject() && !Counters->Obj.empty()) {
    Md += "| counter | value |\n|---|---|\n";
    for (const auto &[K, V] : Counters->Obj)
      if (V.isNumber())
        Md += strf("| %s | %.0f |\n", K.c_str(), V.Num);
    Md += "\n";
  }
  const Value *Hists = member(Doc, "histograms");
  if (Hists && Hists->isObject() && !Hists->Obj.empty()) {
    Md += "| histogram | count | mean | p50 | p99 |\n|---|---|---|---|---|\n";
    for (const auto &[K, V] : Hists->Obj)
      Md += strf("| %s | %.0f | %s | %s | %s |\n", K.c_str(),
                 numOr(member(V, "count"), 0.0),
                 fmtNum(numOr(member(V, "mean"), 0.0)).c_str(),
                 fmtNum(numOr(member(V, "p50"), 0.0)).c_str(),
                 fmtNum(numOr(member(V, "p99"), 0.0)).c_str());
    Md += "\n";
  }
  const Value *Gauges = member(Doc, "gauges");
  if (Gauges && Gauges->isObject() && !Gauges->Obj.empty()) {
    Md += "| gauge | value |\n|---|---|\n";
    for (const auto &[K, V] : Gauges->Obj)
      Md += strf("| %s | %s |\n", K.c_str(),
                 V.isNumber() ? fmtNum(V.Num).c_str() : "null");
    Md += "\n";
  }
}

void sectionJsonl(std::string &Md, const Input &In) {
  Md += strf("%zu records.\n\n", In.Lines.size());
  // The last record is the freshest snapshot; render it like a registry.
  if (!In.Lines.empty())
    registryTables(Md, In.Lines.back());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath;
  std::string BaselinePath;
  double MaxRegress = 0.10;
  std::vector<std::string> Paths;
  for (int K = 1; K < Argc; ++K) {
    std::string Arg = Argv[K];
    if (Arg.rfind("--out=", 0) == 0 && Arg.size() > 6) {
      OutPath = Arg.substr(6);
    } else if (Arg.rfind("--baseline=", 0) == 0 && Arg.size() > 11) {
      BaselinePath = Arg.substr(11);
    } else if (Arg.rfind("--max-regress=", 0) == 0) {
      char *End = nullptr;
      MaxRegress = std::strtod(Arg.c_str() + 14, &End);
      if (*End != '\0' || End == Arg.c_str() + 14 || MaxRegress < 0.0)
        return usage(Argv[0]);
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage(Argv[0]);
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty())
    return usage(Argv[0]);

  std::vector<Input> Inputs;
  for (const std::string &P : Paths) {
    Input In;
    std::string Err;
    if (!loadInput(P, In, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    Inputs.push_back(std::move(In));
  }

  // Baseline gate values, keyed "bench/gate". The baseline file is one
  // envelope or a JSONL of several.
  std::map<std::string, double> Baseline;
  if (!BaselinePath.empty()) {
    Input Base;
    std::string Err;
    if (!loadInput(BaselinePath, Base, Err)) {
      std::fprintf(stderr, "error: baseline: %s\n", Err.c_str());
      return 2;
    }
    std::vector<GateRow> BaseGates;
    if (Base.Kind == InputKind::Envelope)
      collectGates(Base.Doc, BaseGates);
    else if (Base.Kind == InputKind::Jsonl)
      for (const Value &L : Base.Lines)
        collectGates(L, BaseGates);
    for (const GateRow &G : BaseGates)
      Baseline[G.Bench + "/" + G.Name] = G.Value;
  }

  std::vector<GateRow> Gates;
  for (const Input &In : Inputs)
    if (In.Kind == InputKind::Envelope)
      collectGates(In.Doc, Gates);

  bool AnyFailed = false, AnyRegressed = false;
  std::string Md = "# simdize report\n\n";

  if (!Gates.empty()) {
    Md += "## Gates\n\n";
    Md += BaselinePath.empty()
              ? "| bench | gate | value | threshold | status |\n"
                "|---|---|---|---|---|\n"
              : "| bench | gate | value | threshold | status | baseline | "
                "delta |\n|---|---|---|---|---|---|---|\n";
    for (const GateRow &G : Gates) {
      AnyFailed |= !G.Passed;
      Md += strf("| %s | %s | %s | %s | %s |", G.Bench.c_str(),
                 G.Name.c_str(), fmtNum(G.Value).c_str(),
                 fmtNum(G.Threshold).c_str(), G.Passed ? "pass" : "FAIL");
      if (!BaselinePath.empty()) {
        auto It = Baseline.find(G.Bench + "/" + G.Name);
        if (It == Baseline.end()) {
          Md += " new | |";
        } else {
          double Base = It->second;
          double Delta = Base != 0.0 ? (G.Value - Base) / Base : 0.0;
          bool Regressed = Delta < -MaxRegress;
          AnyRegressed |= Regressed;
          Md += strf(" %s | %+.1f%%%s |", fmtNum(Base).c_str(), 100.0 * Delta,
                     Regressed ? " REGRESSED" : "");
        }
      }
      Md += "\n";
    }
    Md += "\n";
  }

  for (const Input &In : Inputs) {
    Md += strf("## %s (%s)\n\n", In.Path.c_str(), inputKindName(In.Kind));
    switch (In.Kind) {
    case InputKind::Envelope:
      sectionEnvelope(Md, In);
      break;
    case InputKind::GoogleBenchmark:
      sectionGoogleBenchmark(Md, In);
      break;
    case InputKind::Flight:
      sectionFlight(Md, In);
      break;
    case InputKind::Registry:
      registryTables(Md, In.Doc);
      break;
    case InputKind::Jsonl:
      sectionJsonl(Md, In);
      break;
    }
  }

  if (AnyFailed)
    Md += "**Verdict: at least one gate FAILED.**\n";
  else if (AnyRegressed)
    Md += strf("**Verdict: gate regression beyond the %.0f%% threshold.**\n",
               100.0 * MaxRegress);
  else
    Md += "Verdict: all gates passed.\n";

  if (OutPath.empty()) {
    std::fputs(Md.c_str(), stdout);
  } else {
    std::ofstream Out(OutPath, std::ios::trunc | std::ios::binary);
    Out << Md;
    if (!Out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
      return 1;
    }
    std::printf("wrote %s\n", OutPath.c_str());
  }
  return (AnyFailed || AnyRegressed) ? 1 : 0;
}
