//===- lower/KernelEmitter.cpp --------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "lower/KernelEmitter.h"

#include "ir/Loop.h"
#include "support/Debug.h"
#include "support/Format.h"
#include "vir/VProgram.h"

using namespace simdize;
using namespace simdize::lower;
using namespace simdize::vir;

namespace {

const char *laneSuffix(unsigned ElemSize) {
  switch (ElemSize) {
  case 1:
    return "i8";
  case 2:
    return "i16";
  case 4:
    return "i32";
  }
  simdize_unreachable("unsupported lane width");
}

} // namespace

std::string KernelEmitter::emitKernel(const std::string &FnName) const {
  // Signature: one byte pointer per array, one long per scalar
  // parameter, then the trip count.
  std::string Out = "void " + FnName + "(";
  for (const auto &A : L.getArrays())
    Out += strf("unsigned char *%s, ", A->getName().c_str());
  for (const auto &Prm : L.getParams())
    Out += strf("long %s, ", Prm->getName().c_str());
  Out += "long ub) {\n";
  Out += "  (void)ub;\n";

  // Register declarations. Only registers the program references are
  // declared: dead-code elimination leaves renumbering gaps, and the
  // emitted kernel must compile cleanly under -Wall -Wextra -Werror.
  std::vector<bool> VUsed(P.getNumVRegs(), false);
  std::vector<bool> SUsed(P.getNumSRegs(), false);
  auto MarkV = [&](VRegId R) {
    if (R.isValid() && R.Id < VUsed.size())
      VUsed[R.Id] = true;
  };
  auto MarkS = [&](SRegId R) {
    if (R.isValid() && R.Id < SUsed.size())
      SUsed[R.Id] = true;
  };
  auto MarkOp = [&](const ScalarOperand &Op) {
    if (Op.IsReg)
      MarkS(Op.Reg);
  };
  auto MarkInst = [&](const VInst &I) {
    MarkV(I.VDst);
    MarkV(I.VSrc1);
    MarkV(I.VSrc2);
    MarkV(I.VSrc3);
    MarkS(I.SDst);
    MarkOp(I.SOp1);
    MarkOp(I.SOp2);
    if (I.Addr.Index)
      MarkS(*I.Addr.Index);
    if (I.Predicate)
      MarkS(*I.Predicate);
  };
  for (const VInst &I : P.getSetup())
    MarkInst(I);
  for (const VInst &I : P.getBody())
    MarkInst(I);
  for (const VInst &I : P.getEpilogue())
    MarkInst(I);
  MarkS(P.getIndexReg());
  MarkOp(P.getLowerBound());
  MarkOp(P.getUpperBound());
  if (P.hasTripCountParam())
    MarkS(P.getTripCountParam());
  for (auto [Reg, Value] : P.getScalarParams()) {
    (void)Value;
    MarkS(Reg);
  }

  std::string VDecl, SDecl;
  for (unsigned K = 0; K < P.getNumVRegs(); ++K)
    if (VUsed[K])
      VDecl += strf("%s v%u{}", VDecl.empty() ? "" : ",", K);
  for (unsigned K = 0; K < P.getNumSRegs(); ++K)
    if (SUsed[K])
      SDecl += strf("%s s%u = 0", SDecl.empty() ? "" : ",", K);
  if (!VDecl.empty())
    Out += "  vx_t" + VDecl + ";\n";
  if (!SDecl.empty())
    Out += "  long" + SDecl + ";\n";
  if (P.hasTripCountParam())
    Out += strf("  s%u = ub;\n", P.getTripCountParam().Id);
  // Bind scalar parameters positionally: declaration order matches the
  // order CodeGenContext declared their registers in.
  {
    size_t Next = 0;
    for (auto [Reg, Value] : P.getScalarParams()) {
      (void)Value;
      if (Next < L.getParams().size())
        Out += strf("  s%u = %s;\n", Reg.Id,
                    L.getParams()[Next++]->getName().c_str());
    }
  }

  for (const VInst &I : P.getSetup())
    Out += "  " + stmt(I) + "\n";

  Out += strf("  for (s%u = %s; s%u < %s; s%u += %u) {\n",
              P.getIndexReg().Id, operand(P.getLowerBound()).c_str(),
              P.getIndexReg().Id, operand(P.getUpperBound()).c_str(),
              P.getIndexReg().Id, P.getLoopStep());
  for (const VInst &I : P.getBody())
    Out += "    " + stmt(I) + "\n";
  Out += "  }\n";

  for (const VInst &I : P.getEpilogue())
    Out += "  " + stmt(I) + "\n";
  Out += "}\n";
  return Out;
}

std::string
KernelEmitter::emitImageWrapper(const ir::Loop &L, const std::string &FnName,
                                const std::vector<int64_t> &ArrayBases) {
  std::string Out;
  Out += "extern \"C\" void " + FnName +
         "_image(unsigned char *Image, const long *Args) {\n";
  Out += "  " + FnName + "(";
  for (size_t K = 0; K < L.getArrays().size(); ++K)
    Out += strf("Image + %lld, ", static_cast<long long>(ArrayBases[K]));
  for (size_t K = 0; K < L.getParams().size(); ++K)
    Out += strf("Args[%zu], ", K);
  Out += strf("Args[%zu]);\n", L.getParams().size());
  Out += "}\n";
  return Out;
}

std::string KernelEmitter::operand(const ScalarOperand &Op) const {
  if (Op.IsReg)
    return strf("s%u", Op.Reg.Id);
  return strf("%lld", static_cast<long long>(Op.Imm));
}

std::string KernelEmitter::address(const Address &A) const {
  std::string Index = A.Index
                          ? strf("s%u", A.Index->Id)
                          : strf("%lld", static_cast<long long>(A.ConstIndex));
  return strf("%s + %u * ((%s) + (%lld))", A.Base->getName().c_str(),
              A.Base->getElemSize(), Index.c_str(),
              static_cast<long long>(A.ElemOffset));
}

std::string KernelEmitter::stmt(const VInst &I) const {
  std::string S = bareStmt(I);
  if (I.Predicate)
    S = strf("if (s%u) { ", I.Predicate->Id) + S + " }";
  if (!I.Comment.empty())
    S += "  // " + I.Comment;
  return S;
}

std::string KernelEmitter::bareStmt(const VInst &I) const {
  switch (I.Op) {
  case VOpcode::VLoad:
    return strf("v%u = vx_ld(%s);", I.VDst.Id, address(I.Addr).c_str());
  case VOpcode::VStore:
    return strf("vx_st(%s, v%u);", address(I.Addr).c_str(), I.VSrc1.Id);
  case VOpcode::VSplat:
    return strf("v%u = vx_splat_%s(%s);", I.VDst.Id, laneSuffix(I.ElemSize),
                operand(I.SOp1).c_str());
  case VOpcode::VShiftPair: {
    if (I.SOp1.isImm()) {
      int64_t Shift = I.SOp1.getImm();
      if (Shift == 0)
        return strf("v%u = v%u;", I.VDst.Id, I.VSrc1.Id);
      if (Shift == static_cast<int64_t>(P.getVectorLen()))
        return strf("v%u = v%u;", I.VDst.Id, I.VSrc2.Id);
      return strf("v%u = vx_sld<%lld>(v%u, v%u);", I.VDst.Id,
                  static_cast<long long>(Shift), I.VSrc1.Id, I.VSrc2.Id);
    }
    return strf("v%u = vx_shiftpair(v%u, v%u, %s);", I.VDst.Id, I.VSrc1.Id,
                I.VSrc2.Id, operand(I.SOp1).c_str());
  }
  case VOpcode::VSplice:
    return strf("v%u = vx_splice(v%u, v%u, %s);", I.VDst.Id, I.VSrc1.Id,
                I.VSrc2.Id, operand(I.SOp1).c_str());
  case VOpcode::VBinOp:
    return strf("v%u = vx_%s_%s(v%u, v%u);", I.VDst.Id,
                ir::binOpMnemonic(I.VectorOp), laneSuffix(I.ElemSize),
                I.VSrc1.Id, I.VSrc2.Id);
  case VOpcode::VCmp:
    return strf("v%u = vx_cmp_%s_%s(v%u, v%u);", I.VDst.Id, sCmpName(I.CmpOp),
                laneSuffix(I.ElemSize), I.VSrc1.Id, I.VSrc2.Id);
  case VOpcode::VSelect:
    return strf("v%u = vx_sel(v%u, v%u, v%u);", I.VDst.Id, I.VSrc1.Id,
                I.VSrc2.Id, I.VSrc3.Id);
  case VOpcode::VCopy:
    return strf("v%u = v%u;", I.VDst.Id, I.VSrc1.Id);
  case VOpcode::SConst:
    return strf("s%u = %lld;", I.SDst.Id, static_cast<long long>(I.Imm));
  case VOpcode::SBase:
    return strf("s%u = (long)(uintptr_t)%s;", I.SDst.Id,
                I.Addr.Base->getName().c_str());
  case VOpcode::SBinOp: {
    std::string A = operand(I.SOp1), B = operand(I.SOp2);
    switch (I.ScalarOp) {
    case SBinOpKind::Add:
      return strf("s%u = (%s) + (%s);", I.SDst.Id, A.c_str(), B.c_str());
    case SBinOpKind::Sub:
      return strf("s%u = (%s) - (%s);", I.SDst.Id, A.c_str(), B.c_str());
    case SBinOpKind::Mul:
      return strf("s%u = (%s) * (%s);", I.SDst.Id, A.c_str(), B.c_str());
    case SBinOpKind::And:
      return strf("s%u = (%s) & (%s);", I.SDst.Id, A.c_str(), B.c_str());
    case SBinOpKind::Mod:
      return strf("s%u = (((%s) %% (%s)) + (%s)) %% (%s);", I.SDst.Id,
                  A.c_str(), B.c_str(), B.c_str(), B.c_str());
    }
    simdize_unreachable("unknown scalar binop");
  }
  case VOpcode::SCmp: {
    const char *Cmp = nullptr;
    switch (I.CmpOp) {
    case SCmpKind::LT:
      Cmp = "<";
      break;
    case SCmpKind::LE:
      Cmp = "<=";
      break;
    case SCmpKind::GT:
      Cmp = ">";
      break;
    case SCmpKind::GE:
      Cmp = ">=";
      break;
    case SCmpKind::EQ:
      Cmp = "==";
      break;
    case SCmpKind::NE:
      Cmp = "!=";
      break;
    }
    return strf("s%u = ((%s) %s (%s)) ? 1 : 0;", I.SDst.Id,
                operand(I.SOp1).c_str(), Cmp, operand(I.SOp2).c_str());
  }
  }
  simdize_unreachable("unknown opcode");
}
