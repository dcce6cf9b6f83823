//===- tests/CheckPathTest.cpp - The one check of a compiled program ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// pipeline::checkCompiled is the only code that checks a compiled program
/// against the scalar oracle. Its two forms (a seed, or a shared reference
/// image) and the compile server's check request must reach the same
/// verdict on every loop and configuration, and an image that does not fit
/// the program is a reported failure, never undefined behaviour.
///
//===----------------------------------------------------------------------===//

#include "fuzz/CorpusIO.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "native/NativeRun.h"
#include "obs/Json.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "server/Cache.h"
#include "server/Service.h"
#include "sim/Checker.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace simdize;

namespace {

ir::Loop figureOneLoop() {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 0, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 3, ir::add(ir::ref(B, 1), ir::ref(C, 2)));
  L.setUpperBound(100, true);
  return L;
}

TEST(CheckCompiled, MismatchedImageIsAStructuredFailure) {
  ir::Loop L = figureOneLoop();
  pipeline::CompileRequest Req;
  Req.Simd.Policy = policies::PolicyKind::Lazy;
  pipeline::CompileResult R = pipeline::runPipeline(L, Req);
  ASSERT_TRUE(R.ok()) << R.error();
  const vir::VProgram &P = *R.Simd.Program;

  // Same text, distinct Array objects: the layout places none of L's
  // arrays, so any address lookup would miss.
  ir::Loop Clone = ir::cloneLoop(L);
  sim::ReferenceImage OfClone(Clone, 16, 5);
  // The right loop at the wrong width.
  sim::ReferenceImage Wide(L, 32, 5);

  struct Case {
    const char *Name;
    const sim::ReferenceImage *Ref;
    const char *Cause;
  } Cases[] = {{"clone", &OfClone,
                "does not place the checked loop's arrays (built from "
                "another loop)"},
               {"width", &Wide, "built at V = 32, program runs at V = 16"}};
  for (const Case &K : Cases) {
    SCOPED_TRACE(K.Name);
    sim::CheckResult VM = sim::checkSimdization(L, P, *K.Ref);
    EXPECT_FALSE(VM.Ok);
    EXPECT_FALSE(VM.VerifierFailed);
    EXPECT_EQ(VM.Message, std::string("reference image mismatch: ") + K.Cause);

    sim::CheckResult Piped = pipeline::checkCompiled(L, R, *K.Ref);
    EXPECT_FALSE(Piped.Ok);
    EXPECT_EQ(Piped.Message,
              std::string("reference image mismatch under scheme LAZY/opt: ") +
                  K.Cause);

    // The native differential refuses the image before emitting or
    // compiling anything.
    std::optional<std::string> Native =
        native::diffNativeAgainstOracle(L, P, *K.Ref);
    ASSERT_TRUE(Native.has_value());
    EXPECT_EQ(*Native, std::string("reference image mismatch: ") + K.Cause);
  }

  // The images themselves are fine for the loops and widths they were
  // built for.
  EXPECT_TRUE(pipeline::checkCompiled(L, R, sim::ReferenceImage(L, 16, 5)).Ok);
  EXPECT_EQ(OfClone.mismatch(Clone, 16), std::nullopt);
  EXPECT_EQ(Wide.mismatch(L, 32), std::nullopt);
}

/// One configuration of the verdict-equality sweep, with the JSON config
/// object the compile server reads for it.
struct PathConfig {
  pipeline::CompileRequest Req;
  std::string Json;
};

std::vector<PathConfig> pathConfigs() {
  std::vector<PathConfig> Out;
  auto Add = [&](policies::PolicyKind Policy, bool SP, pipeline::OptLevel Opt,
                 unsigned V, bool Reassoc, pipeline::ExecTier Tier,
                 std::string Json) {
    PathConfig C;
    C.Req.Simd.Policy = Policy;
    C.Req.Simd.SoftwarePipelining = SP;
    C.Req.Simd.Tgt = Target(V);
    C.Req.Opt = Opt;
    C.Req.OffsetReassoc = Reassoc;
    C.Req.Tier = Tier;
    C.Json = std::move(Json);
    Out.push_back(std::move(C));
  };
  using policies::PolicyKind;
  using pipeline::ExecTier;
  using pipeline::OptLevel;
  Add(PolicyKind::Lazy, true, OptLevel::Std, 16, false, ExecTier::VM,
      R"({"policy":"lazy","sp":true,"opt":"std","width":16})");
  Add(PolicyKind::Dominant, false, OptLevel::PC, 32, true, ExecTier::VM,
      R"({"policy":"dom","sp":false,"opt":"pc","width":32,"reassoc":true})");
  Add(PolicyKind::Optimal, true, OptLevel::Raw, 64, false, ExecTier::VM,
      R"({"policy":"optimal","sp":true,"opt":"raw","width":64})");
  Add(PolicyKind::Zero, false, OptLevel::Std, 16, false, ExecTier::Native,
      R"({"policy":"zero","sp":false,"opt":"std","width":16,"tier":"native"})");
  return Out;
}

std::string checkRequest(const std::string &Loop, const std::string &Config,
                         uint64_t Seed) {
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject()
      .field("id", 1)
      .field("kind", "check")
      .field("loop", Loop)
      .field("seed", Seed)
      .key("config")
      .raw(Config)
      .endObject();
  return Out;
}

TEST(CheckCompiled, EveryCheckPathGivesOneVerdict) {
  std::vector<std::string> Files = fuzz::listCorpusFiles(SIMDIZE_CORPUS_DIR);
  ASSERT_FALSE(Files.empty());
  server::Service S;
  sim::ReferenceImageCache Images(/*MaxEntries=*/0);
  unsigned Compared = 0, Native = 0, Reassoc = 0;
  for (const std::string &Path : Files) {
    auto Text = fuzz::readCorpusFile(Path);
    ASSERT_TRUE(Text.has_value()) << Path;
    parser::ParseResult Parsed = parser::parseLoop(*Text, 64);
    ASSERT_TRUE(Parsed.ok()) << Path << ": " << Parsed.Error;
    const ir::Loop &L = *Parsed.Loop;
    for (const PathConfig &C : pathConfigs()) {
      for (uint64_t Seed : {2004u, 77u}) {
        SCOPED_TRACE(Path + " " + C.Req.name() + " seed " +
                     std::to_string(Seed));
        pipeline::CompileResult R = pipeline::runPipeline(L, C.Req);
        std::optional<obs::json::Value> Resp =
            obs::json::parse(S.handle(checkRequest(*Text, C.Json, Seed)));
        ASSERT_TRUE(Resp.has_value());
        if (!R.ok()) {
          // Rejected loops never reach a check, on any path.
          EXPECT_EQ(Resp->find("kind")->Str, "error");
          continue;
        }
        ASSERT_EQ(Resp->find("kind")->Str, "check");
        EXPECT_EQ(Resp->find("config")->Str, C.Req.name());

        sim::CheckResult BySeed = pipeline::checkCompiled(L, R, Seed);

        const ir::Loop &Checked = R.checkedLoop(L);
        uint64_t LoopKey = server::CompileCache::hashBytes(
            14695981039346656037ULL, ir::printLoop(Checked));
        sim::CheckResult ByImage = pipeline::checkCompiled(
            L, R,
            *Images.get(LoopKey, Checked, C.Req.target().VectorLen, Seed));

        const obs::json::Value *Verdict = Resp->find("verdict");
        ASSERT_NE(Verdict, nullptr);
        EXPECT_TRUE(BySeed.Ok) << BySeed.Message;
        EXPECT_EQ(ByImage.Ok, BySeed.Ok);
        EXPECT_EQ(Verdict->find("ok")->Bool, BySeed.Ok);
        EXPECT_EQ(ByImage.Message, BySeed.Message);
        EXPECT_EQ(Verdict->find("message")->Str, BySeed.Message);
        EXPECT_TRUE(ByImage.Stats.Counts == BySeed.Stats.Counts);
        ++Compared;
        Native += C.Req.Tier == pipeline::ExecTier::Native;
        Reassoc += C.Req.OffsetReassoc;
      }
    }
  }
  // Both special configurations were exercised.
  EXPECT_GT(Native, 0u);
  EXPECT_GT(Reassoc, 0u);
  EXPECT_GT(Compared, 2 * Files.size());
  // Later configurations of one loop reused images the cache already held.
  EXPECT_GT(Images.stats().Hits, 0);
}

} // namespace
