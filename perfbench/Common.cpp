//===- perfbench/Common.cpp -----------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "obs/Json.h"
#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace simdize;

namespace perfbench {

namespace {

struct E2ESpec {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every workload reports, each in the workload's
/// own terms (see perfbench/README.md, "Metrics").
constexpr E2ESpec E2ESpecs[] = {
    {"setup_s", "s"},
    {"latency_us_p50", "us"},
    {"latency_us_p99", "us"},
    {"throughput_per_s", "1/s"},
};

struct LayerSpec {
  const char *Name;
  const char *Unit;
  const char *Moves; ///< End-to-end metric (workload) it should move.
};

constexpr LayerSpec LayerSpecs[] = {
    {"parser.parse_us", "us",
     "compile_us_p50 (cold-compile); request_us_p99 (serve, misses)"},
    {"reorg.stream_offsets_us", "us", "compile_us_p50 (cold-compile)"},
    {"reorg.graph_us", "us", "compile_us_p50 (cold-compile)"},
    {"policies.placement_us", "us", "compile_us_p50 (cold-compile)"},
    {"policies.steady_shifts", "count",
     "kernel_ns_per_elem.v*, vm_ns_per_elem (kernels)"},
    {"codegen.emit_us", "us", "compile_us_p50 (cold-compile)"},
    {"codegen.verify_us", "us", "compile_us_p50 (cold-compile)"},
    {"opt.cse_us", "us", "compile_us_p50 (cold-compile)"},
    {"opt.pc_us", "us", "compile_us_p50 (cold-compile)"},
    {"opt.unroll_us", "us", "compile_us_p50 (cold-compile)"},
    {"opt.dce_us", "us", "compile_us_p50 (cold-compile)"},
    {"opt.cse.rewrites", "count", "vm_ns_per_elem, kernel_ns_per_elem.v* (kernels)"},
    {"opt.pc.rewrites", "count", "vm_ns_per_elem, kernel_ns_per_elem.v* (kernels)"},
    {"opt.unroll.rewrites", "count", "vm_ns_per_elem, kernel_ns_per_elem.v* (kernels)"},
    {"opt.dce.rewrites", "count", "vm_ns_per_elem, kernel_ns_per_elem.v* (kernels)"},
    {"pipeline.run_us_p50", "us",
     "compile_us_p50 (cold-compile); request_us_p99 (serve)"},
    {"pipeline.run_us_p99", "us", "compile_us_p99 (cold-compile)"},
    {"sim.reference_us", "us", "verified_per_s (cold-compile)"},
    {"sim.check_us", "us", "verified_per_s (cold-compile)"},
    {"sim.decode_us", "us", "verified_per_s (cold-compile)"},
    {"sim.execute_us", "us", "verified_per_s (cold-compile)"},
    {"sim.compare_us", "us", "verified_per_s (cold-compile)"},
    {"sim.opd", "opd", "vm_ns_per_elem (kernels)"},
    {"sim.vm_ns_per_elem", "ns", "vm_ns_per_elem (kernels)"},
    {"native.emit_us", "us", "native_build_ms_p50 (cold-compile)"},
    {"native.compile_load_ms", "ms",
     "native_build_ms_p50, native_reload_ms_p50 (cold-compile); setup_s "
     "(kernels)"},
    {"native.compiles", "count", "native_build_ms_p50 (cold-compile)"},
    {"native.memory_hits", "count", "native_reload_ms_p50 (cold-compile)"},
    {"native.disk_hits", "count", "native_reload_ms_p50 (cold-compile)"},
    {"native.failures", "count", "failed (all)"},
    {"native.stage_ns_per_elem", "ns", "call_ns_per_elem (kernels)"},
    {"native.copyout_ns_per_elem", "ns", "call_ns_per_elem (kernels)"},
    {"native.kernel_ns_per_elem.v16", "ns", "kernel_ns_per_elem.v16 (kernels)"},
    {"native.kernel_ns_per_elem.v32", "ns", "kernel_ns_per_elem.v32 (kernels)"},
    {"native.kernel_ns_per_elem.v64", "ns", "kernel_ns_per_elem.v64 (kernels)"},
    {"native.call_ns_per_elem", "ns", "call_ns_per_elem (kernels)"},
    {"native.build_ms_p50", "ms", "native_build_ms_p50 (cold-compile)"},
    {"native.reload_ms_p50", "ms", "native_reload_ms_p50 (cold-compile)"},
    {"ref.gcc_o2_ns_per_elem", "ns", "reported only (kernels)"},
    {"ref.gcc_o3_ns_per_elem", "ns", "reported only (kernels)"},
    {"ref.kernel_over_o3.v16", "ratio", "reported only (kernels)"},
    {"ref.kernel_over_o3.v32", "ratio", "reported only (kernels)"},
    {"ref.kernel_over_o3.v64", "ratio", "reported only (kernels)"},
    {"server.handle_us.compile", "us", "request_us_p50 (serve)"},
    {"server.handle_us.check", "us", "request_us_p50 (serve)"},
    {"server.handle_us.explain", "us", "request_us_p50 (serve)"},
    {"server.handle_us.batch", "us", "request_us_p99 (serve)"},
    {"server.handle_us.stats", "us", "request_us_p50 (serve)"},
    {"server.handle_us.malformed", "us", "request_us_p50 (serve)"},
    {"server.transport_us", "us", "request_us_p50 (serve)"},
    {"server.cache.memo_ratio", "ratio", "request_us_p50 (serve, hits)"},
    {"server.cache.alias_ratio", "ratio", "request_us_p50 (serve, hits)"},
    {"server.cache.live_ratio", "ratio", "request_us_p50 (serve, hits)"},
    {"server.cache.miss_ratio", "ratio", "request_us_p99 (serve, misses)"},
    {"server.cache.evictions", "count", "request_us_p99 (serve, misses)"},
    {"server.ref_images.hit_ratio", "ratio", "request_us_p99 (serve, checks)"},
    {"obs.trace_overhead", "ratio",
     "traced / untraced primary latency - 1 (this workload)"},
};

} // namespace

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double slicedQuantile(const std::vector<double> &V, double Q, size_t Slices) {
  if (V.size() < Slices)
    return quantile(V, Q);
  std::vector<double> PerSlice;
  for (size_t I = 0; I < Slices; ++I)
    PerSlice.push_back(quantile({V.begin() + V.size() * I / Slices,
                                 V.begin() + V.size() * (I + 1) / Slices},
                                Q));
  return median(PerSlice);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  return std::accumulate(V.begin(), V.end(), 0.0) /
         static_cast<double>(V.size());
}

double pearson(const std::vector<double> &X, const std::vector<double> &Y) {
  if (X.size() != Y.size() || X.size() < 2)
    return std::nan("");
  double MX = mean(X), MY = mean(Y);
  double Cov = 0, VX = 0, VY = 0;
  for (size_t I = 0; I < X.size(); ++I) {
    Cov += (X[I] - MX) * (Y[I] - MY);
    VX += (X[I] - MX) * (X[I] - MX);
    VY += (Y[I] - MY) * (Y[I] - MY);
  }
  if (VX <= 0 || VY <= 0)
    return std::nan("");
  return Cov / std::sqrt(VX * VY);
}

namespace {
std::vector<double> ranks(const std::vector<double> &V) {
  std::vector<size_t> Idx(V.size());
  std::iota(Idx.begin(), Idx.end(), 0);
  std::sort(Idx.begin(), Idx.end(),
            [&](size_t A, size_t B) { return V[A] < V[B]; });
  std::vector<double> R(V.size());
  for (size_t I = 0; I < Idx.size();) {
    size_t J = I;
    while (J + 1 < Idx.size() && V[Idx[J + 1]] == V[Idx[I]])
      ++J;
    double Avg = (static_cast<double>(I) + static_cast<double>(J)) / 2 + 1;
    for (size_t K = I; K <= J; ++K)
      R[Idx[K]] = Avg;
    I = J + 1;
  }
  return R;
}
} // namespace

double spearman(const std::vector<double> &X, const std::vector<double> &Y) {
  return pearson(ranks(X), ranks(Y));
}

void Results::endToEnd(const std::string &Name, double Value) {
  E2E[Name] = Value;
}

void Results::layer(const std::string &Name, double Value) {
  Layers[Name] = Value;
}

void Results::note(const std::string &Name, double Value, const char *Unit,
                   const std::string &Detail) {
  Sheet.push_back(strf("  %-34s %14.6g %-6s %s", Name.c_str(), Value, Unit,
                       Detail.c_str()));
}

void Results::text(const std::string &Line) { Sheet.push_back(Line); }

void Results::fail(const std::string &Why, int64_t N) {
  Failed += N;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
}

int Results::finish() const {
  bool Complete = true;
  std::string Json;
  obs::json::Writer W(Json);
  W.beginObject();
  W.field("correct", Failed == 0);
  W.field("attempted", std::max<int64_t>(Attempted, 1));
  W.field("failed", Failed);
  W.key("metrics").beginObject();
  std::printf("perfbench %s: seed %llu, %.0f s, trace %d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  for (const std::string &Line : Sheet)
    std::printf("%s\n", Line.c_str());
  std::printf("  failed_ratio %.6g (%lld of %lld operations)\n",
              static_cast<double>(Failed) /
                  static_cast<double>(std::max<int64_t>(Attempted, 1)),
              static_cast<long long>(Failed),
              static_cast<long long>(Attempted));
  if (!O.Trace) {
    std::printf("end-to-end (%s):\n", O.Workload.c_str());
    for (const E2ESpec &S : E2ESpecs) {
      auto It = E2E.find(S.Name);
      if (It == E2E.end() || !std::isfinite(It->second) || It->second <= 0) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     S.Name);
        Complete = false;
        continue;
      }
      std::printf("  %-34s %14.6g %s\n", S.Name, It->second, S.Unit);
      W.key(S.Name).beginObject().field("value", It->second).field("unit",
                                                                   S.Unit);
      W.endObject();
    }
  } else {
    std::printf("per-layer (%s; a layer this workload leaves idle reads 0):"
                "\n",
                O.Workload.c_str());
    for (const LayerSpec &S : LayerSpecs) {
      auto It = Layers.find(S.Name);
      double V = It == Layers.end() || !std::isfinite(It->second)
                     ? 0.0
                     : It->second;
      std::printf("  %-34s %14.6g %-6s -> %s\n", S.Name, V, S.Unit, S.Moves);
      W.key(S.Name).beginObject().field("value", V).field("unit", S.Unit);
      W.endObject();
    }
    for (const auto &[Name, V] : Layers) {
      bool Known = false;
      for (const LayerSpec &S : LayerSpecs)
        Known |= Name == S.Name;
      if (!Known) {
        std::fprintf(stderr, "perfbench: unlisted layer metric %s\n",
                     Name.c_str());
        Complete = false;
      }
    }
  }
  W.endObject().endObject();
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Failed == 0 && Complete ? 0 : 1;
}

namespace {
/// Nesting rank for spans that can share a start and a duration at the
/// tracer's microsecond grain: lower ranks are outer. The benchmark's own
/// wrappers enclose the program's spans, and the program nests pipeline >
/// simdize/opt-pipeline/check > phases.
int nestRank(const std::string &Cat, const std::string &Name) {
  if (Cat == "bench")
    return 0;
  if (Name == "pipeline" || Name == "request")
    return 1;
  if (Name == "simdize" || Name == "opt-pipeline" || Name == "check")
    return 2;
  return 3;
}
} // namespace

std::map<std::string, SpanStats> analyzeTrace(const obs::Tracer &T) {
  std::map<std::string, SpanStats> Out;
  std::optional<obs::json::Value> Doc = obs::json::parse(T.toChromeJson());
  if (!Doc)
    return Out;
  const obs::json::Value *Events = Doc->find("traceEvents");
  if (!Events || !Events->isArray())
    return Out;

  struct Ev {
    std::string Key;
    int Rank;
    double Start, Dur;
    double ChildUs = 0;
  };
  std::map<double, std::vector<Ev>> ByTid;
  for (const obs::json::Value &E : Events->Arr) {
    const obs::json::Value *Name = E.find("name"), *Cat = E.find("cat"),
                           *Ts = E.find("ts"), *Dur = E.find("dur"),
                           *Tid = E.find("tid");
    if (!Name || !Cat || !Ts || !Dur || !Tid)
      continue;
    ByTid[Tid->Num].push_back({Cat->Str + "/" + Name->Str,
                               nestRank(Cat->Str, Name->Str), Ts->Num,
                               Dur->Num});
  }
  for (auto &[Tid, Evs] : ByTid) {
    std::stable_sort(Evs.begin(), Evs.end(), [](const Ev &A, const Ev &B) {
      if (A.Start != B.Start)
        return A.Start < B.Start;
      if (A.Dur != B.Dur)
        return A.Dur > B.Dur;
      return A.Rank < B.Rank;
    });
    std::vector<size_t> Stack;
    for (size_t I = 0; I < Evs.size(); ++I) {
      while (!Stack.empty() && Evs[Stack.back()].Start +
                                       Evs[Stack.back()].Dur <
                                   Evs[I].Start + Evs[I].Dur)
        Stack.pop_back();
      if (!Stack.empty())
        Evs[Stack.back()].ChildUs += Evs[I].Dur;
      Stack.push_back(I);
    }
    for (const Ev &E : Evs) {
      SpanStats &S = Out[E.Key];
      ++S.Calls;
      S.SelfUs += std::max(0.0, E.Dur - E.ChildUs);
      S.DurUs.push_back(E.Dur);
    }
  }
  return Out;
}

double selfUsPerCall(const std::map<std::string, SpanStats> &S,
                     const std::string &Key) {
  auto It = S.find(Key);
  if (It == S.end() || It->second.Calls == 0)
    return 0;
  return It->second.SelfUs / static_cast<double>(It->second.Calls);
}

void noteSpans(Results &R, const std::map<std::string, SpanStats> &S) {
  for (const auto &[Key, St] : S)
    R.text(strf("  span %-32s %8lld calls %12.0f us self", Key.c_str(),
                static_cast<long long>(St.Calls), St.SelfUs));
}

void compilerLayers(Results &R, const std::map<std::string, SpanStats> &S) {
  auto Self = [&](const char *Key) { return selfUsPerCall(S, Key); };
  R.layer("parser.parse_us", Self("pipeline/parse"));
  R.layer("reorg.stream_offsets_us", Self("pipeline/stream-offsets"));
  R.layer("reorg.graph_us", Self("pipeline/reorg-graph"));
  R.layer("policies.placement_us", Self("pipeline/shift-placement"));
  R.layer("codegen.emit_us", Self("pipeline/codegen-emit"));
  R.layer("codegen.verify_us", Self("pipeline/vverify"));
  R.layer("opt.cse_us", Self("opt/opt-cse"));
  R.layer("opt.pc_us", Self("opt/opt-predictive-commoning"));
  R.layer("opt.unroll_us", Self("opt/opt-unroll-copies"));
  R.layer("opt.dce_us", Self("opt/opt-dce"));
  auto Run = S.find("pipeline/pipeline");
  std::vector<double> RunUs =
      Run == S.end() ? std::vector<double>{} : Run->second.DurUs;
  R.layer("pipeline.run_us_p50", median(RunUs));
  R.layer("pipeline.run_us_p99", quantile(RunUs, 0.99));
  R.layer("sim.reference_us", Self("sim/reference-image"));
  // A check is its own span plus the VM program verifier it runs.
  R.layer("sim.check_us", Self("sim/check") + Self("sim/vverify"));
  R.layer("sim.decode_us", Self("sim/decode"));
  R.layer("sim.execute_us", Self("sim/execute"));
  R.layer("sim.compare_us", Self("sim/compare"));
}

int runProcess(const std::vector<std::string> &Argv,
               const std::string &OutPath, double TimeoutS) {
  std::vector<std::string> Args = Argv;
  std::vector<char *> CArgv;
  for (std::string &A : Args)
    CArgv.push_back(A.data());
  CArgv.push_back(nullptr);

  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, OutPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&Actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t Pid = -1;
  int Rc = posix_spawnp(&Pid, CArgv[0], &Actions, nullptr, CArgv.data(),
                        environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Rc != 0) {
    std::fprintf(stderr, "perfbench: cannot run %s: %s\n", CArgv[0],
                 std::strerror(Rc));
    return -1;
  }

  auto T0 = Clock::now();
  int Status = 0;
  for (;;) {
    pid_t W = waitpid(Pid, &Status, WNOHANG);
    if (W == Pid)
      break;
    if (W < 0 && errno != EINTR)
      return -1;
    if (secondsSince(T0) > TimeoutS) {
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
      std::fprintf(stderr, "perfbench: %s killed after %.0f s\n", CArgv[0],
                   TimeoutS);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::optional<std::string> runSelf(const Options &O,
                                   const std::vector<std::string> &Args,
                                   double TimeoutS) {
  static int Serial = 0;
  std::string OutPath = strf("%s/child-%d.out", O.WorkDir.c_str(), Serial++);
  std::vector<std::string> Argv = {"/proc/self/exe"};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  int Rc = runProcess(Argv, OutPath, TimeoutS);
  std::string Out = readFile(OutPath);
  if (Rc != 0) {
    std::fprintf(stderr, "perfbench: child failed (%d): %s\n", Rc,
                 Out.c_str());
    return std::nullopt;
  }
  return Out;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

CpuRotation::CpuRotation() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
}

CpuRotation::~CpuRotation() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  if (!Cpus.empty())
    sched_setaffinity(0, sizeof(Set), &Set);
}

void CpuRotation::next() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Next++ % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

std::string freshDir(const Options &O, const std::string &Name) {
  std::filesystem::path P = std::filesystem::path(O.WorkDir) / Name;
  std::error_code EC;
  std::filesystem::remove_all(P, EC);
  std::filesystem::create_directories(P, EC);
  return P.string();
}

void useNativeCache(const std::string &Dir) {
  ::setenv("SIMDIZE_NATIVE_CACHE", Dir.c_str(), 1);
}

} // namespace perfbench
