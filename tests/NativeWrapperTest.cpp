//===- tests/NativeWrapperTest.cpp - simdize_x86.h against the VM --------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wrapper header's reorganization operations, exhaustively: for the
/// shim at V = 16/32/64 and each hardware ISA the host can run,
/// tests/native/vx_conformance.cpp is built through the native compile
/// cache and must produce, byte for byte, what the VM (sim/Machine.cpp)
/// computes for every immediate shift N in [0, V], every runtime shift S
/// in [0, V] and every splice point P in [0, V] on seeded random vectors.
/// Also pins that the compile cache's key covers the header's bytes.
///
//===----------------------------------------------------------------------===//

#include "ir/Loop.h"
#include "native/NativeCompile.h"
#include "native/NativeRun.h"
#include "sim/Machine.h"
#include "sim/Memory.h"
#include "support/Format.h"
#include "vir/VProgram.h"
#include "vir/VVerifier.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace simdize;
using namespace simdize::vir;

namespace {

std::string conformanceSource() {
  std::ifstream In(SIMDIZE_TEST_NATIVE_DIR "/vx_conformance.cpp");
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// The VM reference for one width: A and B load from `in`, and the
/// results go to consecutive V-byte slots of `out` in the
/// vx_conformance.cpp order (immediate shifts, runtime shifts, splices).
struct ReferenceRun {
  ir::Loop L;
  const ir::Array *In = nullptr;
  const ir::Array *Out = nullptr;
  VProgram P;

  explicit ReferenceRun(unsigned V) : P(V, 1) {
    const int64_t Slots = 3 * (int64_t(V) + 1);
    In = L.createArray("in", ir::ElemType::Int8, 2 * V, 0, true);
    Out = L.createArray("out", ir::ElemType::Int8, Slots * V, 0, true);
    VRegId A = P.allocVReg(), B = P.allocVReg(), T = P.allocVReg();
    SRegId Amount = P.allocSReg();
    Block &Setup = P.getSetup();
    Setup.push_back(VInst::makeVLoad(A, Address::constant(In, 0, 0)));
    Setup.push_back(VInst::makeVLoad(B, Address::constant(In, V, 0)));
    int64_t Slot = 0;
    auto Store = [&] {
      Setup.push_back(
          VInst::makeVStore(Address::constant(Out, Slot++ * V, 0), T));
    };
    for (int64_t N = 0; N <= V; ++N) {
      Setup.push_back(
          VInst::makeVShiftPair(T, A, B, ScalarOperand::imm(N)));
      Store();
    }
    for (int64_t S = 0; S <= V; ++S) {
      Setup.push_back(VInst::makeSConst(Amount, S));
      Setup.push_back(
          VInst::makeVShiftPair(T, A, B, ScalarOperand::reg(Amount)));
      Store();
    }
    for (int64_t Point = 0; Point <= V; ++Point) {
      Setup.push_back(VInst::makeSConst(Amount, Point));
      Setup.push_back(
          VInst::makeVSplice(T, A, B, ScalarOperand::reg(Amount)));
      Store();
    }
  }
};

TEST(NativeWrapper, EveryShiftAndSpliceMatchesTheMachine) {
  const std::string Source = conformanceSource();
  ASSERT_NE(Source.find("simdize_vx_conformance"), std::string::npos)
      << "cannot read vx_conformance.cpp";
  struct {
    native::ISA Isa;
    unsigned V;
  } Cells[] = {{native::ISA::Shim, 16},  {native::ISA::Shim, 32},
               {native::ISA::Shim, 64},  {native::ISA::SSE2, 16},
               {native::ISA::AVX2, 32},  {native::ISA::AVX512, 64}};
  for (auto [Isa, V] : Cells) {
    if (!native::hostSupportsISA(Isa))
      continue;
    SCOPED_TRACE(strf("%s at V = %u", native::isaName(Isa), V));
    ReferenceRun Ref(V);
    std::optional<std::string> Invalid = vir::verifyProgram(Ref.P);
    ASSERT_FALSE(Invalid.has_value()) << *Invalid;
    sim::MemoryLayout Layout(Ref.L, V);
    sim::Memory Expected(Layout.getTotalSize());
    Expected.fillPattern(1000 + V);
    native::AlignedImage Img(Expected.size());
    Img.stageFrom(Expected);
    sim::runProgram(Ref.P, Layout, Expected);

    std::string Tu = strf("#define SIMDIZE_NATIVE_V %u\n#define %s 1\n", V,
                          native::isaDefine(Isa)) +
                     Source;
    std::string Error;
    const native::CompiledModule *M =
        native::compileAndLoad(Tu, Isa, &Error);
    ASSERT_NE(M, nullptr) << Error;
    auto Fn = reinterpret_cast<void (*)(const unsigned char *,
                                        unsigned char *, long)>(
        M->symbol("simdize_vx_conformance"));
    ASSERT_NE(Fn, nullptr);
    Fn(Img.data() + Layout.baseOf(Ref.In),
       Img.data() + Layout.baseOf(Ref.Out), static_cast<long>(V));

    const char *Section[] = {"vx_sld<N>", "vx_shiftpair(S)", "vx_splice(P)"};
    const int64_t Base = Layout.baseOf(Ref.Out);
    int Mismatches = 0;
    for (int64_t Byte = 0; Byte < Ref.Out->getSizeInBytes(); ++Byte) {
      uint8_t Want = Expected.data()[Base + Byte];
      uint8_t Got = Img.data()[Base + Byte];
      if (Want == Got)
        continue;
      int64_t Slot = Byte / V;
      if (++Mismatches <= 8)
        ADD_FAILURE() << Section[Slot / (V + 1)] << " with amount "
                      << Slot % (V + 1) << ": byte " << Byte % V
                      << " is " << int(Got) << ", the VM has " << int(Want);
    }
    EXPECT_EQ(Mismatches, 0);
  }
}

TEST(NativeCache, KeyCoversWrapperHeader) {
  const std::string &Header = native::wrapperHeaderText();
  ASSERT_NE(Header.find("vx_shiftpair"), std::string::npos)
      << "the wrapper header was not read";
  const std::string Source = "#define SIMDIZE_NATIVE_V 16\n"
                             "#define SIMDIZE_NATIVE_ISA_SHIM 1\n"
                             "#include \"simdize_x86.h\"\n"
                             "extern \"C\" int simdize_header_key_probe() "
                             "{ return 16; }\n";
  uint64_t Key = native::moduleCacheKey(Source, native::ISA::Shim, Header);
  EXPECT_EQ(Key, native::moduleCacheKey(Source, native::ISA::Shim, Header));

  // Any edit to the header text is a different module.
  std::string Flipped = Header;
  Flipped[Flipped.size() / 2] ^= 1;
  EXPECT_NE(Key, native::moduleCacheKey(Source, native::ISA::Shim, Flipped));
  EXPECT_NE(Key,
            native::moduleCacheKey(Source, native::ISA::Shim, Header + "\n"));

  // compileAndLoad publishes under the key of the header it compiles
  // against.
  std::string Error;
  ASSERT_NE(native::compileAndLoad(Source, native::ISA::Shim, &Error),
            nullptr)
      << Error;
  EXPECT_TRUE(std::filesystem::exists(
      strf("%s/nk_%016llx.so", native::nativeCacheDir().c_str(),
           static_cast<unsigned long long>(Key))));
}

} // namespace
