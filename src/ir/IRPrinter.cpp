//===- ir/IRPrinter.cpp -------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "ir/Module.h"
#include "support/Compiler.h"

#include <map>
#include <sstream>

using namespace ipas;

namespace {

/// Assigns %N names to unnamed values within a function, LLVM style.
class Namer {
public:
  explicit Namer(const Function &F) {
    for (unsigned I = 0; I != F.numArgs(); ++I)
      nameOf(F.arg(I));
    for (BasicBlock *BB : F)
      for (Instruction *Inst : *BB)
        if (Inst->producesValue())
          nameOf(Inst);
  }

  std::string nameOf(const Value *V) {
    if (auto *CI = dyn_cast<ConstantInt>(V)) {
      std::ostringstream OS;
      if (CI->type().isPtr())
        OS << (CI->value() == 0 ? "null" : std::to_string(CI->value()));
      else
        OS << CI->value();
      return OS.str();
    }
    if (auto *CF = dyn_cast<ConstantFP>(V)) {
      std::ostringstream OS;
      OS.precision(17);
      OS << CF->value();
      return OS.str();
    }
    IPAS_GCC_RESTRICT_FALSE_POSITIVE_BEGIN
    if (!V->name().empty())
      return "%" + V->name() + suffixFor(V);
    auto It = Numbers.find(V);
    if (It == Numbers.end())
      It = Numbers.emplace(V, NextNumber++).first;
    return "%" + std::to_string(It->second);
    IPAS_GCC_RESTRICT_FALSE_POSITIVE_END
  }

private:
  /// Distinct unnamed values can share a user-provided name; disambiguate
  /// with a numeric suffix on collision.
  std::string suffixFor(const Value *V) {
    auto It = NameClaims.find(V->name());
    if (It == NameClaims.end()) {
      NameClaims.emplace(V->name(), V);
      return "";
    }
    if (It->second == V)
      return "";
    auto NumIt = Numbers.find(V);
    if (NumIt == Numbers.end())
      NumIt = Numbers.emplace(V, NextNumber++).first;
    return "." + std::to_string(NumIt->second);
  }

  std::map<const Value *, unsigned> Numbers;
  std::map<std::string, const Value *> NameClaims;
  unsigned NextNumber = 0;
};

std::string renderInstruction(const Instruction &I, Namer &N) {
  std::ostringstream OS;
  if (I.producesValue())
    OS << N.nameOf(&I) << " = ";
  OS << opcodeName(I.opcode());
  if (const auto *Cmp = dyn_cast<CmpInst>(&I))
    OS << " " << cmpPredicateName(Cmp->predicate());
  if (const auto *Alloca = dyn_cast<AllocaInst>(&I))
    OS << " " << Alloca->slotCount() << " x i64slot";
  if (const auto *Call = dyn_cast<CallInst>(&I)) {
    OS << " @"
       << (Call->isIntrinsicCall() ? intrinsicName(Call->intrinsicId())
                                   : Call->callee()->name());
  }
  if (!I.type().isVoid())
    OS << " " << I.type().name();

  bool First = true;
  if (const auto *Phi = dyn_cast<PhiInst>(&I)) {
    for (unsigned K = 0; K != Phi->numIncoming(); ++K) {
      OS << (First ? " " : ", ");
      First = false;
      OS << "[" << N.nameOf(Phi->incomingValue(K)) << ", %"
         << Phi->incomingBlock(K)->name() << "]";
    }
  } else {
    for (const Value *Op : I.operands()) {
      OS << (First ? " " : ", ");
      First = false;
      OS << N.nameOf(Op);
    }
  }

  if (const auto *Br = dyn_cast<BranchInst>(&I))
    OS << " label %" << Br->target()->name();
  if (const auto *CBr = dyn_cast<CondBranchInst>(&I))
    OS << ", label %" << CBr->trueTarget()->name() << ", label %"
       << CBr->falseTarget()->name();
  return OS.str();
}

} // namespace

std::string ipas::printInstruction(const Instruction &I) {
  assert(I.parent() && I.parent()->parent() &&
         "printing a detached instruction");
  Namer N(*I.parent()->parent());
  return renderInstruction(I, N);
}

std::string ipas::printFunction(const Function &F) {
  Namer N(F);
  std::ostringstream OS;
  OS << "define " << F.returnType().name() << " @" << F.name() << "(";
  for (unsigned I = 0; I != F.numArgs(); ++I) {
    if (I)
      OS << ", ";
    OS << F.arg(I)->type().name() << " " << N.nameOf(F.arg(I));
  }
  OS << ") {\n";
  for (BasicBlock *BB : F) {
    OS << BB->name() << ":\n";
    for (Instruction *I : *BB)
      OS << "  " << renderInstruction(*I, N) << "\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string ipas::printModule(const Module &M) {
  std::ostringstream OS;
  OS << "; module " << M.name() << "\n";
  for (Function *F : M)
    OS << "\n" << printFunction(*F);
  return OS.str();
}
