//===- tests/CorpusTest.cpp - Replay the committed fuzzing corpus ---------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression gate over tests/corpus/: every committed .loop file must
/// parse, round-trip through the corpus printer, and run clean (verified
/// or cleanly rejected, never Failed) under every applicable pipeline
/// configuration at V = 16, 32 and 64. Fuzz failures get minimized into this directory, so a
/// loop landing here once keeps its bug fixed forever.
///
//===----------------------------------------------------------------------===//

#include "fuzz/CorpusIO.h"
#include "fuzz/Fuzzer.h"
#include "parser/LoopParser.h"

#include <gtest/gtest.h>

using namespace simdize;

namespace {

std::vector<std::string> corpusFiles() {
  return fuzz::listCorpusFiles(SIMDIZE_CORPUS_DIR);
}

TEST(Corpus, DirectoryIsSeeded) {
  // The corpus must never silently vanish (e.g. a bad SIMDIZE_CORPUS_DIR
  // would make every replay test pass vacuously).
  EXPECT_FALSE(corpusFiles().empty())
      << "no .loop files under " << SIMDIZE_CORPUS_DIR;
}

TEST(Corpus, EveryFileParsesAndRoundTrips) {
  for (const std::string &Path : corpusFiles()) {
    SCOPED_TRACE(Path);
    auto Text = fuzz::readCorpusFile(Path);
    ASSERT_TRUE(Text.has_value());
    parser::ParseResult Parsed = parser::parseLoop(*Text);
    ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
    // Print -> parse -> print is a fixpoint, so re-minimized or
    // hand-edited files stay in canonical form.
    std::string Printed = fuzz::printParseable(*Parsed.Loop);
    parser::ParseResult Reparsed = parser::parseLoop(Printed);
    ASSERT_TRUE(Reparsed.ok()) << Reparsed.Error;
    EXPECT_EQ(fuzz::printParseable(*Reparsed.Loop), Printed);
  }
}

TEST(Corpus, EveryFileRunsCleanUnderAllConfigs) {
  for (const std::string &Path : corpusFiles()) {
    SCOPED_TRACE(Path);
    auto Text = fuzz::readCorpusFile(Path);
    ASSERT_TRUE(Text.has_value());
    // Parsed at the widest width (it only bounds `align` literals), as
    // simdize-fuzz --replay does; every width then compiles the same loop.
    parser::ParseResult Parsed = parser::parseLoop(*Text, 64);
    ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
    const ir::Loop &L = *Parsed.Loop;
    for (unsigned W : {16u, 32u, 64u})
      for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L, W)) {
        fuzz::RunResult R = fuzz::runConfigOnLoop(L, C, 2004);
        EXPECT_NE(R.Status, fuzz::RunStatus::Failed)
            << C.name() << ": " << R.Message;
      }
  }
}

} // namespace
