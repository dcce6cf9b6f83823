//===- perfbench/Serve.cpp - Workload "serve" -----------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mixed traffic to a compile server: a default server::Service behind a
/// server::UnixServer on a private socket, driven by a closed loop of two
/// server::Client connections that each wait for their reply before
/// sending the next request.
///
/// The traffic is a synthetic assumption; the repository has no recorded
/// server traffic. Its one anchor is the daemon's self-soak (simdized
/// --soak), which alternates compile and check requests, so compile and
/// check take equal shares here. Explain, batch, stats and malformed
/// requests take one in sixteen each: enough that every kind answers many
/// times a second, few enough that compile and check stay 3/4 of the
/// traffic. Each remaining parameter is there so that a cache layer
/// answers:
///
///  - content is drawn Zipf-style (weight 1 / rank) from a pool of 2048
///    (loop, config) pairs, twice the default 1024-entry compile cache, so
///    LRU eviction keeps a steady share of misses;
///  - every (content, spelling) has one fixed id, so a repeat of the same
///    kind resends exact bytes and reaches the response memo;
///  - the same content under another kind reaches the raw-text alias;
///  - one request in eight spells its loop with a leading comment line,
///    which reaches the live entry after a parse when the loop is cached;
///  - each loop comes under two configs of one width (two policies), as
///    someone comparing policies would send it, so the second check of a
///    loop finds its oracle image in the shared reference-image cache.
///
/// The layer shares this produces are printed on every run's sheet. The
/// native tier is not used.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "fuzz/CorpusIO.h"
#include "obs/Json.h"
#include "server/Server.h"
#include "server/Service.h"
#include "support/Format.h"
#include "support/RNG.h"
#include "synth/LoopSynth.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

using namespace simdize;

namespace perfbench {

namespace {

constexpr size_t PoolSize = 2048;
constexpr int Clients = 2;
constexpr int WarmupPerClient = 4000;

enum Kind { Compile, Check, Explain, Batch, Stats, Malformed, NumKinds };
const char *const KindNames[] = {"compile", "check", "explain",
                                 "batch",   "stats", "malformed"};

/// The content pool: loop texts and their config objects. Content k has
/// Zipf popularity rank k (weight 1 / (k + 1)), loop k / 2, and a config
/// (policy x SP x opt std/pc x V 16/32) that cycles with k, so contents 2j
/// and 2j + 1 send loop j under two policies at one width. Loop j has a
/// shape (1-3 statements, 1-4 loads, i8/i16/i32) that cycles with j, so
/// every seed serves the same mix; the seed draws the loops themselves
/// (alignments, offsets, reuse, trip counts).
struct Pool {
  std::vector<std::string> Loops, Configs;
  std::vector<double> Cdf;
};

Pool makePool(uint64_t Seed) {
  const ir::ElemType Types[] = {ir::ElemType::Int8, ir::ElemType::Int16,
                                ir::ElemType::Int32};
  const char *Policies[] = {"zero", "eager", "lazy", "dom", "optimal"};
  Pool P;
  RNG Rng(Seed * 0x9e3779b97f4a7c15ULL + 3);
  std::set<std::string> Seen;
  double Sum = 0;
  for (size_t K = 0; K < PoolSize; ++K) {
    size_t J = K / 2;
    synth::SynthParams SP;
    SP.Statements = 1 + J % 3;
    SP.LoadsPerStmt = 1 + (J / 3) % 4;
    SP.Ty = Types[(J / 12) % 3];
    unsigned Width = (K / 20) % 2 ? 32u : 16u;
    SP.VectorLen = Width; // The service parses at the config's width.
    if (K % 2 == 1) {
      P.Loops.push_back(P.Loops.back());
    } else {
      for (;;) {
        SP.TripCount = Rng.uniformInt(100, 200);
        SP.Seed = Rng.next();
        std::string Text = fuzz::printParseable(synth::synthesizeLoop(SP));
        if (Seen.insert(Text).second) {
          P.Loops.push_back(std::move(Text));
          break;
        }
      }
    }
    std::string Cfg;
    obs::json::Writer W(Cfg);
    W.beginObject()
        .field("policy", Policies[K % 5])
        .field("sp", (K / 5) % 2 == 0)
        .field("opt", (K / 10) % 2 ? "pc" : "std")
        .field("width", Width)
        .endObject();
    P.Configs.push_back(std::move(Cfg));
    Sum += 1.0 / static_cast<double>(K + 1);
    P.Cdf.push_back(Sum);
  }
  for (double &C : P.Cdf)
    C /= Sum;
  return P;
}

/// What a request expects back: per item (kind, content), or the error
/// code of a malformed payload.
struct Expect {
  Kind K = Compile;
  std::vector<std::pair<Kind, uint32_t>> Items;
  const char *Code = nullptr;
};

struct Drawn {
  std::string Payload;
  Expect E;
};

/// The request kinds, drawn uniformly: compile and check in equal shares
/// (as the self-soak sends them), one each of the others.
constexpr Kind Mix[16] = {Compile, Check, Compile, Check, Compile, Check,
                          Compile, Check, Compile, Check, Compile, Check,
                          Explain, Batch, Stats,   Malformed};

/// One request for content \p C: spelling 0 is the printed loop, spelling
/// 1 adds a comment line before it; each (content, spelling) has one id.
std::string itemPayload(const Pool &P, Kind K, uint32_t C, int Spelling) {
  std::string Text = P.Loops[C];
  if (Spelling == 1)
    Text = "# resubmitted\n" + Text;
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject()
      .field("id", static_cast<uint64_t>(C * 2 + Spelling))
      .field("kind", KindNames[K])
      .field("loop", Text)
      .key("config")
      .raw(P.Configs[C])
      .endObject();
  return Out;
}

Drawn draw(RNG &Rng, const Pool &P) {
  auto Single = [&](Drawn &D, Kind K) {
    double U = Rng.uniformReal();
    uint32_t C = static_cast<uint32_t>(std::min<size_t>(
        std::lower_bound(P.Cdf.begin(), P.Cdf.end(), U) - P.Cdf.begin(),
        PoolSize - 1));
    int Spelling = Rng.withProbability(0.125) ? 1 : 0;
    D.E.Items.push_back({K, C});
    return itemPayload(P, K, C, Spelling);
  };
  Drawn D;
  D.E.K = Mix[Rng.next() % 16];
  uint64_t Id = Rng.next() % 1000000;
  switch (D.E.K) {
  case Malformed:
    switch (Rng.next() % 3) {
    case 0:
      D.Payload = strf("{\"id\":%llu,\"kind\":\"compile\",\"loop\":",
                       static_cast<unsigned long long>(Id));
      D.E.Code = "bad_json";
      break;
    case 1:
      D.Payload = strf("{\"id\":%llu,\"kind\":\"transmogrify\"}",
                       static_cast<unsigned long long>(Id));
      D.E.Code = "unknown_kind";
      break;
    default:
      D.Payload = strf("{\"id\":%llu,\"kind\":\"compile\",\"loop\":"
                       "\"array a i32 banana\\nloop 100\\n\"}",
                       static_cast<unsigned long long>(Id));
      D.E.Code = "parse_error";
      break;
    }
    break;
  case Stats:
    D.Payload = strf("{\"id\":%llu,\"kind\":\"stats\"}",
                     static_cast<unsigned long long>(Id));
    break;
  case Batch: {
    // Three items, compile or check in equal shares.
    std::string Out;
    obs::json::Writer W(Out);
    W.beginObject()
        .field("id", Id)
        .field("kind", "batch")
        .key("requests")
        .beginArray();
    for (int I = 0; I < 3; ++I)
      W.raw(Single(D, Rng.next() % 2 ? Check : Compile));
    W.endArray().endObject();
    D.Payload = std::move(Out);
    break;
  }
  default:
    D.Payload = Single(D, D.E.K);
    break;
  }
  return D;
}

/// The top-level JSON objects of a batch response's "responses" array, as
/// raw text.
std::vector<std::string> splitBatch(const std::string &Resp) {
  std::vector<std::string> Out;
  size_t P = Resp.find("\"responses\":[");
  if (P == std::string::npos)
    return Out;
  P += 13;
  int Depth = 0;
  bool InStr = false;
  size_t Start = P;
  for (size_t I = P; I < Resp.size(); ++I) {
    char C = Resp[I];
    if (InStr) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InStr = false;
      continue;
    }
    if (C == '"') {
      InStr = true;
    } else if (C == '{') {
      if (Depth++ == 0)
        Start = I;
    } else if (C == '}') {
      if (--Depth == 0)
        Out.push_back(Resp.substr(Start, I + 1 - Start));
    } else if (C == ']' && Depth == 0) {
      break;
    }
  }
  return Out;
}

/// The first compile and explain response seen per (kind, content), with
/// the echoed id cut off: every repeat must match it byte for byte.
struct Fingerprints {
  std::mutex Mu;
  std::map<uint64_t, std::string> Seen;
  int64_t Mismatches = 0;
  std::string FirstMismatch;

  void record(Kind K, uint32_t C, const std::string &Resp) {
    size_t Comma = Resp.find(',');
    std::string Body = Resp.substr(Comma == std::string::npos ? 0 : Comma);
    std::lock_guard<std::mutex> L(Mu);
    auto [It, New] = Seen.emplace((static_cast<uint64_t>(K) << 32) | C, Body);
    if (!New && It->second != Body && Mismatches++ == 0)
      FirstMismatch = It->second.substr(0, 600) + " vs " + Body.substr(0, 600);
  }
};

/// Checks one response against its expectation: empty when right,
/// otherwise what was wrong.
std::string verify(const Expect &E, const std::string &Resp, Fingerprints &F) {
  auto Has = [&](const std::string &S, const std::string &Needle) {
    return S.find(Needle) != std::string::npos;
  };
  auto Item = [&](Kind K, uint32_t C, const std::string &S) -> std::string {
    if (!Has(S, "\"ok\":true") ||
        !Has(S, std::string("\"kind\":\"") + KindNames[K] + "\"") ||
        (K == Check && !Has(S, "\"verdict\":{\"ok\":true")))
      return std::string("unexpected ") + KindNames[K] + " response " +
             S.substr(0, 800);
    if (K != Check)
      F.record(K, C, S);
    return "";
  };
  switch (E.K) {
  case Malformed:
    if (Has(Resp, "\"kind\":\"error\"") &&
        Has(Resp, std::string("\"code\":\"") + E.Code + "\""))
      return "";
    return std::string("want error ") + E.Code + ", got " + Resp.substr(0, 400);
  case Stats:
    if (Has(Resp, "\"kind\":\"stats\"") && Has(Resp, "\"ok\":true"))
      return "";
    return "unexpected stats response " + Resp.substr(0, 400);
  case Batch: {
    std::vector<std::string> Subs = splitBatch(Resp);
    if (Subs.size() != E.Items.size())
      return strf("batch of %zu answered with %zu responses", E.Items.size(),
                  Subs.size());
    for (size_t I = 0; I < Subs.size(); ++I) {
      std::string Why = Item(E.Items[I].first, E.Items[I].second, Subs[I]);
      if (!Why.empty())
        return strf("batch item %zu: ", I) + Why;
    }
    return "";
  }
  default:
    return Item(E.Items[0].first, E.Items[0].second, Resp);
  }
}

/// One served request as the client saw it.
struct Sample {
  Kind K;
  double Us;
  Clock::time_point Sent;
  std::string Payload; ///< Kept only when the caller asks for it.
};

/// A running server with its clients.
struct Rig {
  std::unique_ptr<server::Service> Svc;
  std::unique_ptr<server::UnixServer> Srv;
  std::vector<std::unique_ptr<server::Client>> Cl;
};

/// Layer counters of a service, for the window deltas.
struct Layers {
  int64_t Memo = 0, Alias = 0, Live = 0, Miss = 0, Evictions = 0;
  int64_t RefHits = 0, RefMisses = 0;
};

Layers layersOf(server::Service &S) {
  Layers L;
  L.Memo = S.registry().counterValue("server.cache.memo_hits");
  L.Alias = S.registry().counterValue("server.cache.alias_hits");
  L.Live = S.registry().counterValue("server.cache.live_hits");
  L.Miss = S.registry().counterValue("server.cache.miss_compiles");
  L.Evictions = S.cache().stats().Evictions;
  L.RefHits = S.refImages().stats().Hits;
  L.RefMisses = S.refImages().stats().Misses;
  return L;
}

uint64_t streamSeed(uint64_t Seed, int Client, bool Warmup) {
  return Seed * 0x100000001b3ULL + static_cast<uint64_t>(Client) * 7919 +
         (Warmup ? 104729 : 1);
}

/// Drives every client of \p G in its own thread: \p PerClient requests
/// each when positive, otherwise until \p Seconds have passed. Returns
/// the samples of all clients; wrong answers go to \p R.
std::vector<Sample> drive(Rig &G, const Pool &P, std::vector<RNG> &Streams,
                          int PerClient, double Seconds, bool KeepPayloads,
                          Fingerprints &F, Results &R) {
  std::vector<std::vector<Sample>> Per(G.Cl.size());
  std::vector<int64_t> Wrong(G.Cl.size(), 0), Broken(G.Cl.size(), 0);
  std::vector<std::string> FirstWrong(G.Cl.size());
  std::vector<std::thread> Threads;
  auto T0 = Clock::now();
  for (size_t C = 0; C < G.Cl.size(); ++C)
    Threads.emplace_back([&, C] {
      std::string Resp;
      for (int N = 0; PerClient > 0 ? N < PerClient : secondsSince(T0) < Seconds;
           ++N) {
        Drawn D = draw(Streams[C], P);
        Sample S{D.E.K, 0, Clock::now(), ""};
        bool Ok;
        {
          obs::Span Sp("Client::call", "bench");
          Ok = G.Cl[C]->call(D.Payload, Resp);
        }
        S.Us = nsBetween(S.Sent, Clock::now()) / 1e3;
        if (!Ok) {
          ++Broken[C];
          return;
        }
        std::string Why = verify(D.E, Resp, F);
        if (!Why.empty() && Wrong[C]++ == 0)
          FirstWrong[C] = std::move(Why);
        if (KeepPayloads)
          S.Payload = std::move(D.Payload);
        Per[C].push_back(std::move(S));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<Sample> All;
  for (size_t C = 0; C < G.Cl.size(); ++C) {
    R.attempted(static_cast<int64_t>(Per[C].size()) + Broken[C]);
    if (Wrong[C])
      R.fail(strf("client %zu: %lld wrong responses, first: %s", C,
                  static_cast<long long>(Wrong[C]), FirstWrong[C].c_str()),
             Wrong[C]);
    if (Broken[C])
      R.fail(strf("client %zu: connection failed", C), Broken[C]);
    for (Sample &S : Per[C])
      All.push_back(std::move(S));
  }
  return All;
}

/// Starts a fresh service, server and clients on socket \p Sock, and
/// warms the cache with the clients' warm-up streams (whose wrong answers
/// count as failures). False when the server or a client cannot start.
bool startRig(const Options &O, const Pool &P, const std::string &Sock,
              Rig &G, Fingerprints &F, Results &R) {
  G.Svc = std::make_unique<server::Service>();
  G.Srv = std::make_unique<server::UnixServer>(*G.Svc, Sock);
  std::string Err;
  if (!G.Srv->start(&Err)) {
    R.fail("server start: " + Err);
    return false;
  }
  for (int C = 0; C < Clients; ++C) {
    G.Cl.push_back(std::make_unique<server::Client>());
    if (!G.Cl.back()->connect(Sock, &Err)) {
      R.fail("client connect: " + Err);
      return false;
    }
  }
  std::vector<RNG> Warm;
  for (int C = 0; C < Clients; ++C)
    Warm.emplace_back(streamSeed(O.Seed, C, true));
  drive(G, P, Warm, WarmupPerClient, 0, false, F, R);
  return true;
}

void stopRig(Rig &G) {
  for (auto &C : G.Cl)
    C->close();
  G.Cl.clear();
  if (G.Srv)
    G.Srv->stop();
  G.Srv.reset();
  G.Svc.reset();
}

} // namespace

void runServe(const Options &O, Results &R) {
  Fingerprints F;
  Pool P;
  Rig G;
  // Set-up: pool, service, server, clients and cache warm-up; three times
  // (the first two torn down) for the median, once when traced.
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < (O.Trace ? 1 : 3); ++Rep) {
    stopRig(G);
    auto T0 = Clock::now();
    P = makePool(O.Seed);
    if (!startRig(O, P, strf("%s/s%d.sock", O.WorkDir.c_str(), Rep), G, F,
                  R)) {
      stopRig(G);
      return;
    }
    SetupS.push_back(secondsSince(T0));
  }

  std::vector<RNG> Streams;
  for (int C = 0; C < Clients; ++C)
    Streams.emplace_back(streamSeed(O.Seed, C, false));

  // One measured window: the samples, their wall time and the layer
  // counters' deltas; aborts the run unless every cache layer answered.
  struct Window {
    std::vector<Sample> S;
    Clock::time_point Start;
    double Seconds = 0;
    Layers D;
  };
  auto Measure = [&](double Seconds, bool Keep) {
    Window W;
    Layers Before = layersOf(*G.Svc);
    W.Start = Clock::now();
    W.S = drive(G, P, Streams, 0, Seconds, Keep, F, R);
    W.Seconds = secondsSince(W.Start);
    Layers After = layersOf(*G.Svc);
    W.D = {After.Memo - Before.Memo,           After.Alias - Before.Alias,
           After.Live - Before.Live,           After.Miss - Before.Miss,
           After.Evictions - Before.Evictions, After.RefHits - Before.RefHits,
           After.RefMisses - Before.RefMisses};
    if (W.D.Memo <= 0 || W.D.Alias <= 0 || W.D.Live <= 0 || W.D.Miss <= 0 ||
        W.D.Evictions <= 0 || W.D.RefHits <= 0)
      R.fail(strf("serve must exercise every cache layer: memo %lld, alias "
                  "%lld, live %lld, miss %lld, evictions %lld, reference-"
                  "image hits %lld",
                  (long long)W.D.Memo, (long long)W.D.Alias,
                  (long long)W.D.Live, (long long)W.D.Miss,
                  (long long)W.D.Evictions, (long long)W.D.RefHits));
    return W;
  };
  auto Latencies = [](const Window &W) {
    std::vector<double> V;
    for (const Sample &S : W.S)
      V.push_back(S.Us);
    return V;
  };

  Window Main = Measure(O.Trace ? O.Seconds / 2 : O.Seconds, O.Trace);
  obs::Tracer Tracer;
  Window Traced;
  if (O.Trace) {
    obs::installTracer(&Tracer);
    Traced = Measure(O.Seconds / 2, false);
    obs::installTracer(nullptr);
  }
  stopRig(G);
  {
    std::lock_guard<std::mutex> L(F.Mu);
    R.attempted(static_cast<int64_t>(F.Seen.size()));
    if (F.Mismatches)
      R.fail(strf("%lld compile/explain responses differ from an earlier "
                  "response to the same content, first: %s",
                  static_cast<long long>(F.Mismatches),
                  F.FirstMismatch.c_str()),
             F.Mismatches);
  }

  // Each figure is the median over ten equal slices of the window (by
  // completion time), so a burst of machine noise in one slice does not
  // move it.
  constexpr int Slices = 10;
  std::vector<std::vector<double>> BySlice(Slices);
  for (const Sample &S : Main.S) {
    double Done = nsBetween(Main.Start, S.Sent) / 1e9 + S.Us / 1e6;
    BySlice[std::clamp(static_cast<int>(Done / Main.Seconds * Slices), 0,
                       Slices - 1)]
        .push_back(S.Us);
  }
  std::vector<double> SliceP50, SliceP99, SliceRps;
  for (const std::vector<double> &L : BySlice) {
    SliceP50.push_back(median(L));
    SliceP99.push_back(quantile(L, 0.99));
    SliceRps.push_back(static_cast<double>(L.size()) /
                       (Main.Seconds / Slices));
  }
  std::vector<double> Lat = Latencies(Main);
  double P50 = median(SliceP50), P99 = median(SliceP99);
  double Rps = median(SliceRps);
  int64_t Lookups = Main.D.Memo + Main.D.Alias + Main.D.Live + Main.D.Miss;
  auto Share = [&](int64_t N) {
    return static_cast<double>(N) / static_cast<double>(std::max<int64_t>(Lookups, 1));
  };
  std::string Count =
      strf("median of %d slices; %zu requests from %d closed-loop clients",
           Slices, Lat.size(), Clients);
  R.note("request_us_p50", P50, "us", "client round trip; " + Count);
  R.note("request_us_p99", P99, "us", Count);
  R.note("requests_per_s", Rps, "1/s",
         strf("median of %d slices of %.2f s", Slices, Main.Seconds / Slices));
  R.text(strf("  cache layers: memo %.3f alias %.3f live %.3f miss %.3f of "
              "%lld lookups; %lld evictions; reference images %lld hits, "
              "%lld misses",
              Share(Main.D.Memo), Share(Main.D.Alias), Share(Main.D.Live),
              Share(Main.D.Miss), static_cast<long long>(Lookups),
              static_cast<long long>(Main.D.Evictions),
              static_cast<long long>(Main.D.RefHits),
              static_cast<long long>(Main.D.RefMisses)));

  if (!O.Trace) {
    R.note("setup_s", median(SetupS), "s",
           strf("median of 3 (%.3f %.3f %.3f): pool + server + %d-request "
                "warm-up",
                SetupS[0], SetupS[1], SetupS[2], Clients * WarmupPerClient));
    R.endToEnd("setup_s", median(SetupS));
    R.endToEnd("latency_us_p50", P50);
    R.endToEnd("latency_us_p99", P99);
    R.endToEnd("throughput_per_s", Rps);
    return;
  }

  // Service::handle timed directly on the untraced window's payloads, in
  // the order they were sent, on a fresh service warmed the same way; the
  // rest of each round trip is transport.
  std::vector<const Sample *> Order;
  for (const Sample &S : Main.S)
    Order.push_back(&S);
  std::stable_sort(Order.begin(), Order.end(),
                   [](const Sample *A, const Sample *B) {
                     return A->Sent < B->Sent;
                   });
  server::Service Direct;
  for (int C = 0; C < Clients; ++C) {
    RNG Warm(streamSeed(O.Seed, C, true));
    for (int N = 0; N < WarmupPerClient; ++N)
      Direct.handle(draw(Warm, P).Payload);
  }
  std::vector<std::vector<double>> HandleUs(NumKinds);
  std::vector<double> AllHandle;
  for (const Sample *S : Order) {
    auto T0 = Clock::now();
    Direct.handle(S->Payload);
    double Us = nsBetween(T0, Clock::now()) / 1e3;
    HandleUs[S->K].push_back(Us);
    AllHandle.push_back(Us);
  }
  for (int K = 0; K < NumKinds; ++K)
    R.layer(std::string("server.handle_us.") + KindNames[K], mean(HandleUs[K]));
  R.layer("server.transport_us", mean(Lat) - mean(AllHandle));
  R.layer("server.cache.memo_ratio", Share(Main.D.Memo));
  R.layer("server.cache.alias_ratio", Share(Main.D.Alias));
  R.layer("server.cache.live_ratio", Share(Main.D.Live));
  R.layer("server.cache.miss_ratio", Share(Main.D.Miss));
  R.layer("server.cache.evictions", static_cast<double>(Main.D.Evictions));
  R.layer("server.ref_images.hit_ratio",
          static_cast<double>(Main.D.RefHits) /
              static_cast<double>(
                  std::max<int64_t>(Main.D.RefHits + Main.D.RefMisses, 1)));

  std::map<std::string, SpanStats> Spans = analyzeTrace(Tracer);
  compilerLayers(R, Spans);
  R.layer("obs.trace_overhead",
          median(Latencies(Traced)) / median(Latencies(Main)) - 1);
  noteSpans(R, Spans);
}

} // namespace perfbench
