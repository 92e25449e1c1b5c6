//===- testing/ProgramGen.cpp --------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "testing/ProgramGen.h"

#include "testing/SourcePrinter.h"
#include "support/Compiler.h"
#include "support/Random.h"

#include <cassert>

using namespace ipas;
using namespace ipas::testing;

namespace {

SourceLoc noLoc() { return SourceLoc{0, 0}; }

//===----------------------------------------------------------------------===//
// AST construction shorthand
//===----------------------------------------------------------------------===//

ExprPtr intLit(int64_t V) {
  assert(V >= 0 && "negative literals are spelled with unary minus");
  return std::make_unique<IntLitExpr>(V, noLoc());
}

ExprPtr floatLit(double V) {
  return std::make_unique<FloatLitExpr>(V, noLoc());
}

ExprPtr varRef(const std::string &Name) {
  return std::make_unique<VarRefExpr>(Name, noLoc());
}

ExprPtr binary(TokenKind Op, ExprPtr L, ExprPtr R) {
  return std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R),
                                      noLoc());
}

ExprPtr unary(TokenKind Op, ExprPtr S) {
  return std::make_unique<UnaryExpr>(Op, std::move(S), noLoc());
}

ExprPtr call(const char *Callee, std::vector<ExprPtr> Args) {
  return std::make_unique<CallExpr>(Callee, std::move(Args), noLoc());
}

ExprPtr call1(const char *Callee, ExprPtr A) {
  std::vector<ExprPtr> Args;
  Args.push_back(std::move(A));
  return call(Callee, std::move(Args));
}

ExprPtr call2(const char *Callee, ExprPtr A, ExprPtr B) {
  std::vector<ExprPtr> Args;
  Args.push_back(std::move(A));
  Args.push_back(std::move(B));
  return call(Callee, std::move(Args));
}

ExprPtr index(const std::string &Array, ExprPtr Idx) {
  return std::make_unique<IndexExpr>(varRef(Array), std::move(Idx), noLoc());
}

ExprPtr assign(TokenKind Op, ExprPtr Target, ExprPtr V) {
  return std::make_unique<AssignExpr>(Op, std::move(Target), std::move(V),
                                      noLoc());
}

ExprPtr castTo(MCType To, ExprPtr S) {
  return std::make_unique<CastExpr>(To, std::move(S), noLoc());
}

StmtPtr exprStmt(ExprPtr E) {
  return std::make_unique<ExprStmt>(std::move(E), noLoc());
}

StmtPtr declStmt(MCType Ty, const std::string &Name, ExprPtr Init) {
  auto D = std::make_unique<DeclStmt>(Ty, Name, noLoc());
  D->Init = std::move(Init);
  return D;
}

std::unique_ptr<BlockStmt> block() {
  return std::make_unique<BlockStmt>(noLoc());
}

/// `for (int <Var> = 0; <Var> < Trip; <Var> = <Var> + 1) <Body>`
StmtPtr countedFor(const std::string &Var, int64_t Trip,
                   std::unique_ptr<BlockStmt> Body) {
  auto F = std::make_unique<ForStmt>(noLoc());
  F->Init = declStmt(MCType::intTy(), Var, intLit(0));
  F->Cond = binary(TokenKind::Less, varRef(Var), intLit(Trip));
  F->Inc = assign(TokenKind::Assign, varRef(Var),
                  binary(TokenKind::Plus, varRef(Var), intLit(1)));
  F->Body = std::move(Body);
  return F;
}

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

struct VarInfo {
  std::string Name;
  bool IsInt = true;
  bool IsArray = false;
  int64_t Len = -1;       ///< Array length (arrays only).
  bool Assignable = true; ///< False for loop counters.
};

struct HelperSig {
  std::string Name;
  bool RetInt = true;
  std::vector<bool> ParamIsInt;
  /// First parameter is a recursion depth: generated call sites must pass
  /// a small positive constant there, never an arbitrary expression
  /// (termination relies on it).
  bool DepthParam = false;
};

class Gen {
public:
  Gen(const GenConfig &Cfg) : Cfg(Cfg), R(Cfg.Seed) {}

  std::unique_ptr<TranslationUnit> run() {
    auto TU = std::make_unique<TranslationUnit>();
    // Recursive functions come first so plain helpers and the entry can
    // call them (with constant depths). The group is only registered in
    // Helpers once every body exists: a group member calling itself (or
    // its partner) with a *constant* depth from inside its own body would
    // recurse forever, so those in-body calls are crafted explicitly with
    // `d - 1` and pickHelper must not see the group until it is closed.
    unsigned NumRec =
        Cfg.MaxRecursiveFns
            ? static_cast<unsigned>(R.nextBelow(Cfg.MaxRecursiveFns + 1))
            : 0;
    if (NumRec >= 2) {
      HelperSig A = drawRecursiveSig("r0");
      HelperSig B = drawRecursiveSig("r1");
      TU->Functions.push_back(genRecursiveFn(A, B));
      TU->Functions.push_back(genRecursiveFn(B, A));
      Helpers.push_back(std::move(A));
      Helpers.push_back(std::move(B));
    } else if (NumRec == 1) {
      HelperSig A = drawRecursiveSig("r0");
      TU->Functions.push_back(genRecursiveFn(A, A));
      Helpers.push_back(std::move(A));
    }
    unsigned NumHelpers =
        Cfg.MaxHelpers ? static_cast<unsigned>(R.nextBelow(Cfg.MaxHelpers + 1))
                       : 0;
    for (unsigned I = 0; I != NumHelpers; ++I)
      TU->Functions.push_back(genHelper(I));
    TU->Functions.push_back(genEntry());
    return TU;
  }

private:
  const GenConfig &Cfg;
  Rng R;
  std::vector<HelperSig> Helpers; ///< Callable (already generated) helpers.

  // Per-function state. Vars is the visibility stack: block scopes save
  // its size on entry and truncate back on exit.
  std::vector<VarInfo> Vars;
  unsigned NextName = 0;
  unsigned LoopDepth = 0;
  bool RetInt = true;

  std::string freshName(char Prefix) {
    return std::string(1, Prefix) + std::to_string(NextName++);
  }

  void beginFunction(bool ReturnsInt) {
    Vars.clear();
    NextName = 0;
    LoopDepth = 0;
    RetInt = ReturnsInt;
  }

  /// Uniformly picks a visible scalar of the given type; null if none.
  const VarInfo *pickScalar(bool WantInt, bool MustAssign = false) {
    size_t Count = 0;
    for (const VarInfo &V : Vars)
      if (!V.IsArray && V.IsInt == WantInt && (!MustAssign || V.Assignable))
        ++Count;
    if (!Count)
      return nullptr;
    size_t Pick = R.nextBelow(Count);
    for (const VarInfo &V : Vars)
      if (!V.IsArray && V.IsInt == WantInt && (!MustAssign || V.Assignable))
        if (Pick-- == 0)
          return &V;
    return nullptr;
  }

  const VarInfo *pickArray() {
    size_t Count = 0;
    for (const VarInfo &V : Vars)
      if (V.IsArray)
        ++Count;
    if (!Count)
      return nullptr;
    size_t Pick = R.nextBelow(Count);
    for (const VarInfo &V : Vars)
      if (V.IsArray)
        if (Pick-- == 0)
          return &V;
    return nullptr;
  }

  const HelperSig *pickHelper(bool WantInt) {
    size_t Count = 0;
    for (const HelperSig &H : Helpers)
      if (H.RetInt == WantInt)
        ++Count;
    if (!Count)
      return nullptr;
    size_t Pick = R.nextBelow(Count);
    for (const HelperSig &H : Helpers)
      if (H.RetInt == WantInt)
        if (Pick-- == 0)
          return &H;
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  /// `((E % Len) + Len) % Len` — in [0, Len) for every E.
  ExprPtr safeIndex(int64_t Len, unsigned Depth) {
    ExprPtr E = genInt(Depth);
    return binary(
        TokenKind::Percent,
        binary(TokenKind::Plus,
               binary(TokenKind::Percent, std::move(E), intLit(Len)),
               intLit(Len)),
        intLit(Len));
  }

  /// `(E % K) + (K + 2)` — in [3, 2K+1], never zero, never negative.
  ExprPtr safeIntDivisor(unsigned Depth) {
    static const int64_t Ks[] = {5, 7, 11};
    int64_t K = Ks[R.nextBelow(3)];
    return binary(TokenKind::Plus,
                  binary(TokenKind::Percent, genInt(Depth), intLit(K)),
                  intLit(K + 2));
  }

  /// `fabs(E) + C` with C >= 1 — never zero, never negative, never NaN
  /// from a zero/zero.
  ExprPtr safeFpDivisor(unsigned Depth) {
    double C = 1.0 + 0.5 * static_cast<double>(R.nextBelow(4));
    return binary(TokenKind::Plus, call1("fabs", genDouble(Depth)),
                  floatLit(C));
  }

  /// `(int)(fmin(fmax(E, -9.0e8), 9.0e8))` — an exact, saturation-free
  /// double-to-int conversion for any E (NaN collapses to a bound via
  /// fmax/fmin's NaN-ignoring semantics).
  ExprPtr clampedIntOfDouble(ExprPtr E) {
    ExprPtr Clamped = call2(
        "fmin",
        call2("fmax", std::move(E), unary(TokenKind::Minus, floatLit(9.0e8))),
        floatLit(9.0e8));
    return castTo(MCType::intTy(), std::move(Clamped));
  }

  ExprPtr genIntLeaf() {
    if (const VarInfo *V = R.nextBool(0.7) ? pickScalar(true) : nullptr)
      return varRef(V->Name);
    return intLit(static_cast<int64_t>(R.nextBelow(100)));
  }

  ExprPtr genDoubleLeaf() {
    if (const VarInfo *V = R.nextBool(0.7) ? pickScalar(false) : nullptr)
      return varRef(V->Name);
    // Multiples of 0.125: short exact decimal renderings.
    double V = 0.125 * static_cast<double>(R.nextBelow(65));
    return floatLit(V);
  }

  ExprPtr genCall(const HelperSig &H, unsigned Depth) {
    std::vector<ExprPtr> Args;
    for (size_t I = 0; I != H.ParamIsInt.size(); ++I) {
      if (I == 0 && H.DepthParam) {
        // Constant recursion depth — the termination contract.
        Args.push_back(intLit(1 + static_cast<int64_t>(R.nextBelow(
                               static_cast<uint64_t>(
                                   Cfg.MaxRecursionDepth)))));
        continue;
      }
      Args.push_back(H.ParamIsInt[I] ? genInt(Depth) : genDouble(Depth));
    }
    return call(H.Name.c_str(), std::move(Args));
  }

  ExprPtr genInt(unsigned Depth) {
    if (Depth == 0)
      return genIntLeaf();
    switch (R.nextBelow(12)) {
    case 0:
    case 1:
      return genIntLeaf();
    case 2:
      return unary(TokenKind::Minus, genInt(Depth - 1));
    case 3:
      return binary(TokenKind::Plus, genInt(Depth - 1), genInt(Depth - 1));
    case 4:
      return binary(TokenKind::Minus, genInt(Depth - 1), genInt(Depth - 1));
    case 5:
      return binary(TokenKind::Star, genInt(Depth - 1), genInt(Depth - 1));
    case 6:
      return binary(TokenKind::Slash, genInt(Depth - 1),
                    safeIntDivisor(Depth - 1));
    case 7:
      return binary(TokenKind::Percent, genInt(Depth - 1),
                    safeIntDivisor(Depth - 1));
    case 8:
      return genCondition(Depth - 1); // comparisons/logical yield 0/1
    case 9:
      if (const VarInfo *A = pickArray())
        if (A->IsInt)
          return index(A->Name, safeIndex(A->Len, Depth - 1));
      return binary(TokenKind::Plus, genInt(Depth - 1), genIntLeaf());
    case 10:
      if (const HelperSig *H = pickHelper(true))
        return genCall(*H, Depth - 1);
      return clampedIntOfDouble(genDouble(Depth - 1));
    default:
      return R.nextBool()
                 ? call2("imin", genInt(Depth - 1), genInt(Depth - 1))
                 : call2("imax", genInt(Depth - 1), genInt(Depth - 1));
    }
  }

  ExprPtr genDouble(unsigned Depth) {
    if (Depth == 0)
      return genDoubleLeaf();
    switch (R.nextBelow(12)) {
    case 0:
    case 1:
      return genDoubleLeaf();
    case 2:
      return unary(TokenKind::Minus, genDouble(Depth - 1));
    case 3:
      return binary(TokenKind::Plus, genDouble(Depth - 1),
                    genDouble(Depth - 1));
    case 4:
      return binary(TokenKind::Minus, genDouble(Depth - 1),
                    genDouble(Depth - 1));
    case 5:
      return binary(TokenKind::Star, genDouble(Depth - 1),
                    genDouble(Depth - 1));
    case 6:
      return binary(TokenKind::Slash, genDouble(Depth - 1),
                    safeFpDivisor(Depth - 1));
    case 7:
      return call1("sqrt", call1("fabs", genDouble(Depth - 1)));
    case 8:
      return call1(R.nextBool() ? "sin" : "cos", genDouble(Depth - 1));
    case 9:
      if (const VarInfo *A = pickArray())
        if (!A->IsInt)
          return index(A->Name, safeIndex(A->Len, Depth - 1));
      return call1("floor", genDouble(Depth - 1));
    case 10:
      if (const HelperSig *H = pickHelper(false))
        return genCall(*H, Depth - 1);
      return castTo(MCType::doubleTy(), genInt(Depth - 1));
    default:
      return R.nextBool()
                 ? call2("fmin", genDouble(Depth - 1), genDouble(Depth - 1))
                 : call2("fmax", genDouble(Depth - 1), genDouble(Depth - 1));
    }
  }

  /// An int-typed truth value: comparison or logical combination.
  ExprPtr genCondition(unsigned Depth) {
    static const TokenKind Cmps[] = {
        TokenKind::Less,    TokenKind::LessEqual,    TokenKind::Greater,
        TokenKind::GreaterEqual, TokenKind::EqualEqual, TokenKind::NotEqual};
    switch (Depth == 0 ? 0 : R.nextBelow(5)) {
    case 0:
    case 1: {
      TokenKind Op = Cmps[R.nextBelow(6)];
      return R.nextBool()
                 ? binary(Op, genInt(Depth), genInt(Depth))
                 : binary(Op, genDouble(Depth), genDouble(Depth));
    }
    case 2:
      return binary(TokenKind::AmpAmp, genCondition(Depth - 1),
                    genCondition(Depth - 1));
    case 3:
      return binary(TokenKind::PipePipe, genCondition(Depth - 1),
                    genCondition(Depth - 1));
    default:
      return unary(TokenKind::Bang, genCondition(Depth - 1));
    }
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void genDeclInto(std::vector<StmtPtr> &Out) {
    bool IsInt = R.nextBool();
    std::string Name = freshName('v');
    Out.push_back(declStmt(IsInt ? MCType::intTy() : MCType::doubleTy(),
                           Name,
                           IsInt ? genInt(Cfg.MaxExprDepth - 1)
                                 : genDouble(Cfg.MaxExprDepth - 1)));
    Vars.push_back({Name, IsInt, false, -1, true});
  }

  /// `double tN[L];` followed by a fill loop; the array only becomes
  /// visible to later statements once every slot is initialized.
  void genArrayInto(std::vector<StmtPtr> &Out) {
    bool IsInt = R.nextBool(0.35);
    int64_t Len = 2 + static_cast<int64_t>(R.nextBelow(
                          static_cast<uint64_t>(Cfg.MaxArrayLen - 1)));
    std::string Name = freshName('t');
    auto D = std::make_unique<DeclStmt>(
        IsInt ? MCType::intTy() : MCType::doubleTy(), Name, noLoc());
    D->ArraySlots = Len;
    Out.push_back(std::move(D));

    std::string Idx = freshName('f');
    auto Body = block();
    Vars.push_back({Idx, true, false, -1, false});
    Body->Stmts.push_back(exprStmt(
        assign(TokenKind::Assign, index(Name, varRef(Idx)),
               IsInt ? genInt(2) : genDouble(2))));
    Vars.pop_back();
    Out.push_back(countedFor(Idx, Len, std::move(Body)));
    Vars.push_back({Name, IsInt, true, Len, true});
  }

  StmtPtr genAssign() {
    // Prefer scalar stores; fall back to array elements.
    if (R.nextBool(0.3)) {
      if (const VarInfo *A = pickArray()) {
        ExprPtr Target = index(A->Name, safeIndex(A->Len, 2));
        ExprPtr V = A->IsInt ? genInt(Cfg.MaxExprDepth - 1)
                             : genDouble(Cfg.MaxExprDepth - 1);
        return exprStmt(assign(TokenKind::Assign, std::move(Target),
                               std::move(V)));
      }
    }
    bool WantInt = R.nextBool();
    const VarInfo *V = pickScalar(WantInt, /*MustAssign=*/true);
    if (!V)
      V = pickScalar(!WantInt, /*MustAssign=*/true);
    if (!V)
      return exprStmt(genInt(1)); // no assignable vars: harmless compute
    bool IsInt = V->IsInt;
    switch (R.nextBelow(5)) {
    case 0:
      return exprStmt(assign(
          TokenKind::PlusAssign, varRef(V->Name),
          IsInt ? genInt(Cfg.MaxExprDepth - 1)
                : genDouble(Cfg.MaxExprDepth - 1)));
    case 1:
      return exprStmt(assign(
          TokenKind::MinusAssign, varRef(V->Name),
          IsInt ? genInt(Cfg.MaxExprDepth - 2)
                : genDouble(Cfg.MaxExprDepth - 2)));
    case 2:
      return exprStmt(assign(TokenKind::StarAssign, varRef(V->Name),
                             IsInt ? genInt(1) : genDouble(1)));
    case 3:
      // Compound division keeps the guarded-divisor invariant.
      return exprStmt(assign(TokenKind::SlashAssign, varRef(V->Name),
                             IsInt ? safeIntDivisor(1) : safeFpDivisor(1)));
    default:
      return exprStmt(assign(
          TokenKind::Assign, varRef(V->Name),
          IsInt ? genInt(Cfg.MaxExprDepth) : genDouble(Cfg.MaxExprDepth)));
    }
  }

  StmtPtr genIf(unsigned BlockNest, unsigned StmtBudget) {
    auto S = std::make_unique<IfStmt>(noLoc());
    S->Cond = genCondition(2);
    auto Then = block();
    fillBlock(*Then, StmtBudget, BlockNest + 1);
    // A guarded break/continue is only meaningful inside a loop and is
    // always the last statement of the branch (nothing after it would run).
    if (LoopDepth > 0 && R.nextBool(0.25))
      Then->Stmts.push_back(
          R.nextBool() ? StmtPtr(std::make_unique<BreakStmt>(noLoc()))
                       : StmtPtr(std::make_unique<ContinueStmt>(noLoc())));
    S->Then = std::move(Then);
    if (R.nextBool(0.4)) {
      auto Else = block();
      fillBlock(*Else, StmtBudget, BlockNest + 1);
      S->Else = std::move(Else);
    }
    return S;
  }

  StmtPtr genLoop(unsigned BlockNest, unsigned StmtBudget) {
    int64_t Trip = 1 + static_cast<int64_t>(R.nextBelow(
                           static_cast<uint64_t>(Cfg.MaxTripCount)));
    std::string Idx = freshName('i');
    auto Body = block();
    Vars.push_back({Idx, true, false, -1, false});
    ++LoopDepth;
    fillBlock(*Body, StmtBudget, BlockNest + 1);
    --LoopDepth;
    Vars.pop_back();
    return countedFor(Idx, Trip, std::move(Body));
  }

  /// Appends StmtBudget-ish statements to \p B (each may recurse). With
  /// \p KeepVars the declarations stay visible to the caller — used for
  /// the function body's own statement list, whose scope extends to the
  /// closing return.
  void fillBlock(BlockStmt &B, unsigned StmtBudget, unsigned BlockNest,
                 bool KeepVars = false) {
    size_t Mark = Vars.size();
    unsigned N = 1 + static_cast<unsigned>(R.nextBelow(StmtBudget));
    for (unsigned I = 0; I != N; ++I) {
      switch (R.nextBelow(10)) {
      case 0:
      case 1:
        genDeclInto(B.Stmts);
        break;
      case 2:
      case 3:
      case 4:
      case 5:
        B.Stmts.push_back(genAssign());
        break;
      case 6:
      case 7:
        if (BlockNest < Cfg.MaxBlockNest) {
          B.Stmts.push_back(genIf(BlockNest, Cfg.MaxNestedStmts));
          break;
        }
        B.Stmts.push_back(genAssign());
        break;
      default:
        if (BlockNest < Cfg.MaxBlockNest && LoopDepth < Cfg.MaxLoopNest) {
          B.Stmts.push_back(genLoop(BlockNest, Cfg.MaxNestedStmts));
          break;
        }
        B.Stmts.push_back(genAssign());
        break;
      }
    }
    if (!KeepVars)
      Vars.resize(Mark);
  }

  /// Folds every visible scalar (and the edges of every array) into one
  /// returned checksum so the oracles observe nearly all computation.
  ExprPtr checksumExpr() {
    ExprPtr IntChain = intLit(0);
    ExprPtr DblChain = floatLit(0.0);
    for (const VarInfo &V : Vars) {
      if (V.IsArray) {
        DblChain = binary(
            TokenKind::Plus, std::move(DblChain),
            V.IsInt ? castTo(MCType::doubleTy(), index(V.Name, intLit(0)))
                    : index(V.Name, intLit(0)));
        DblChain = binary(
            TokenKind::Plus, std::move(DblChain),
            V.IsInt
                ? castTo(MCType::doubleTy(), index(V.Name, intLit(V.Len - 1)))
                : index(V.Name, intLit(V.Len - 1)));
      } else if (V.IsInt) {
        IntChain = binary(TokenKind::Plus, std::move(IntChain),
                          varRef(V.Name));
      } else {
        DblChain = binary(TokenKind::Plus, std::move(DblChain),
                          varRef(V.Name));
      }
    }
    // (ints + (int)clamp(doubles * 512)) — scaling keeps fractional bits
    // visible in the integer checksum.
    ExprPtr Scaled = binary(TokenKind::Star, std::move(DblChain),
                            floatLit(512.0));
    ExprPtr Combined = binary(TokenKind::Plus, std::move(IntChain),
                              clampedIntOfDouble(std::move(Scaled)));
    if (RetInt)
      return Combined;
    return castTo(MCType::doubleTy(), std::move(Combined));
  }

  std::unique_ptr<BlockStmt> genBody(unsigned TopStmts, unsigned NumArrays) {
    auto Body = block();
    // Prologue: a couple of seeded locals of each type so expressions have
    // material to work with from the start.
    genDeclInto(Body->Stmts);
    genDeclInto(Body->Stmts);
    for (unsigned I = 0; I != NumArrays; ++I)
      if (R.nextBool(0.75))
        genArrayInto(Body->Stmts);
    fillBlock(*Body, TopStmts, 0, /*KeepVars=*/true);
    // KeepVars left top-level declarations visible for the checksum.
    auto Ret = std::make_unique<ReturnStmt>(noLoc());
    Ret->Value = checksumExpr();
    Body->Stmts.push_back(std::move(Ret));
    return Body;
  }

  HelperSig drawRecursiveSig(const char *Name) {
    HelperSig Sig;
    Sig.Name = Name;
    Sig.RetInt = R.nextBool();
    Sig.DepthParam = true;
    Sig.ParamIsInt.push_back(true); // the depth
    Sig.ParamIsInt.push_back(R.nextBool());
    return Sig;
  }

  /// One member of a recursion group: guards on the depth, does a little
  /// local computation, and folds a `Target(d - 1, ...)` call into its
  /// return value. \p Target is \p Self for a self-recursive function and
  /// the partner signature for a mutually recursive pair (MiniC
  /// pre-declares every function, so calling a later definition is fine).
  std::unique_ptr<FunctionDecl> genRecursiveFn(const HelperSig &Self,
                                               const HelperSig &Target) {
    beginFunction(Self.RetInt);
    auto FD = std::make_unique<FunctionDecl>();
    FD->RetTy = Self.RetInt ? MCType::intTy() : MCType::doubleTy();
    FD->Name = Self.Name;
    FD->Loc = noLoc();
    FD->Params.push_back({MCType::intTy(), "d", noLoc()});
    // `d` is deliberately non-assignable: termination needs the depth the
    // recursive call decrements to be the depth this frame was given.
    Vars.push_back({"d", true, false, -1, false});
    for (size_t I = 1; I != Self.ParamIsInt.size(); ++I) {
      IPAS_GCC_RESTRICT_FALSE_POSITIVE_BEGIN
      std::string Name = "p" + std::to_string(I);
      IPAS_GCC_RESTRICT_FALSE_POSITIVE_END
      FD->Params.push_back({Self.ParamIsInt[I] ? MCType::intTy()
                                               : MCType::doubleTy(),
                            Name, noLoc()});
      Vars.push_back({Name, Self.ParamIsInt[I], false, -1, true});
    }

    auto Body = block();
    // Base case: `if (d <= 0) return <leaf>;`
    auto If = std::make_unique<IfStmt>(noLoc());
    If->Cond = binary(TokenKind::LessEqual, varRef("d"), intLit(0));
    auto Then = block();
    auto Base = std::make_unique<ReturnStmt>(noLoc());
    Base->Value = Self.RetInt ? genInt(2) : genDouble(2);
    Then->Stmts.push_back(std::move(Base));
    If->Then = std::move(Then);
    Body->Stmts.push_back(std::move(If));

    genDeclInto(Body->Stmts);
    Body->Stmts.push_back(genAssign());

    // `Target(d - 1, ...)`, coerced to this function's return type.
    std::vector<ExprPtr> Args;
    Args.push_back(binary(TokenKind::Minus, varRef("d"), intLit(1)));
    for (size_t I = 1; I != Target.ParamIsInt.size(); ++I)
      Args.push_back(Target.ParamIsInt[I] ? genInt(2) : genDouble(2));
    ExprPtr Rec = call(Target.Name.c_str(), std::move(Args));
    ExprPtr Combined;
    if (Self.RetInt) {
      ExprPtr RecInt =
          Target.RetInt ? std::move(Rec) : clampedIntOfDouble(std::move(Rec));
      Combined = binary(TokenKind::Plus, std::move(RecInt), genInt(2));
    } else {
      ExprPtr RecDbl = Target.RetInt
                           ? castTo(MCType::doubleTy(), std::move(Rec))
                           : std::move(Rec);
      Combined = binary(TokenKind::Plus, std::move(RecDbl), genDouble(2));
    }
    auto Ret = std::make_unique<ReturnStmt>(noLoc());
    Ret->Value = std::move(Combined);
    Body->Stmts.push_back(std::move(Ret));
    FD->Body = std::move(Body);
    return FD;
  }

  std::unique_ptr<FunctionDecl> genHelper(unsigned Index) {
    HelperSig Sig;
    Sig.Name = "h" + std::to_string(Index);
    Sig.RetInt = R.nextBool();
    unsigned NumParams = 1 + static_cast<unsigned>(R.nextBelow(3));
    for (unsigned I = 0; I != NumParams; ++I)
      Sig.ParamIsInt.push_back(R.nextBool());

    beginFunction(Sig.RetInt);
    auto FD = std::make_unique<FunctionDecl>();
    FD->RetTy = Sig.RetInt ? MCType::intTy() : MCType::doubleTy();
    FD->Name = Sig.Name;
    FD->Loc = noLoc();
    for (unsigned I = 0; I != NumParams; ++I) {
      IPAS_GCC_RESTRICT_FALSE_POSITIVE_BEGIN
      std::string Name = "p" + std::to_string(I);
      IPAS_GCC_RESTRICT_FALSE_POSITIVE_END
      FD->Params.push_back({Sig.ParamIsInt[I] ? MCType::intTy()
                                              : MCType::doubleTy(),
                            Name, noLoc()});
      Vars.push_back({Name, Sig.ParamIsInt[I], false, -1, true});
    }
    FD->Body = genBody(/*TopStmts=*/3, /*NumArrays=*/0);
    Helpers.push_back(std::move(Sig));
    return FD;
  }

  std::unique_ptr<FunctionDecl> genEntry() {
    beginFunction(/*ReturnsInt=*/true);
    auto FD = std::make_unique<FunctionDecl>();
    FD->RetTy = MCType::intTy();
    FD->Name = GenEntryName;
    FD->Loc = noLoc();
    FD->Params.push_back({MCType::intTy(), "a", noLoc()});
    FD->Params.push_back({MCType::intTy(), "b", noLoc()});
    Vars.push_back({"a", true, false, -1, true});
    Vars.push_back({"b", true, false, -1, true});
    FD->Body = genBody(Cfg.MaxTopStmts, Cfg.MaxArrays);
    return FD;
  }
};

} // namespace

GeneratedProgram ipas::testing::generateProgram(const GenConfig &Cfg) {
  GeneratedProgram P;
  P.Seed = Cfg.Seed;
  P.TU = Gen(Cfg).run();
  P.Source = printTranslationUnit(*P.TU);
  return P;
}
