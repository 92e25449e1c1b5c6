//===- tests/TestVM.cpp - Bytecode VM vs interpreter equivalence ----------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Three layers of evidence that the threaded-code VM reproduces the
/// interpreter's observable semantics exactly (the fuzzed O5-backend
/// oracle is the fourth):
///  - a trap-parity table mirroring every interpreter trap case, run on
///    both backends and compared field by field;
///  - hand-derived bytecode goldens for the compiler's phi-edge moves,
///    trampolines, and fallthrough layout;
///  - a counting-profiler parity suite: the VM's in-dispatch profiling
///    hook must fill the CostProfiler's buffers (per-site counts and
///    per-function stream hashes) bit-identically to the interpreter;
///  - a backend x threads x pruning x profiling campaign sweep whose
///    sixteen deterministic record streams must be byte-identical.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/SocPropagation.h"
#include "fault/Campaign.h"
#include "fault/FunctionHarness.h"
#include "interp/CostProfiler.h"
#include "obs/Metrics.h"
#include "transform/Duplication.h"
#include "vm/VM.h"
#include "workloads/WorkloadHarness.h"

#include <cstring>
#include <fstream>
#include <sstream>

using namespace ipas;
using namespace ipas::testutil;

namespace {

/// Everything both backends promise to agree on for one run.
struct BackendRun {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  uint64_t Bits = 0;
  uint64_t Steps = 0;
  uint64_t ValueSteps = 0;
  bool FaultInjected = false;
  unsigned FaultedId = 0;
};

BackendRun runOnInterp(const Module &M, const std::string &Fn,
                       const std::vector<RtValue> &Args,
                       uint64_t MaxSteps = 100000000ull,
                       const FaultPlan *Plan = nullptr) {
  ModuleLayout Layout(M);
  ExecutionContext Ctx(Layout);
  if (Plan)
    Ctx.setFaultPlan(*Plan);
  Ctx.start(M.getFunction(Fn), Args);
  BackendRun R;
  R.Status = Ctx.run(MaxSteps);
  R.Trap = Ctx.trap();
  R.Bits = Ctx.returnValue().Bits;
  R.Steps = Ctx.steps();
  R.ValueSteps = Ctx.valueSteps();
  R.FaultInjected = Ctx.faultWasInjected();
  R.FaultedId = Ctx.faultedInstructionId();
  return R;
}

BackendRun runOnVm(const Module &M, const std::string &Fn,
                   const std::vector<RtValue> &Args,
                   uint64_t MaxSteps = 100000000ull,
                   const FaultPlan *Plan = nullptr) {
  ModuleLayout Layout(M);
  std::string Err;
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout, &Err);
  EXPECT_NE(Prog, nullptr) << "vm compile failed: " << Err;
  BackendRun R;
  if (!Prog) {
    R.Status = RunStatus::Trapped;
    return R;
  }
  vm::VmContext Ctx(*Prog);
  vm::VmContext::Result V = Ctx.run(Prog->indexOf(Fn), Args, Plan, MaxSteps);
  R.Status = V.Status;
  R.Trap = V.Trap;
  R.Bits = V.ReturnValue.Bits;
  R.Steps = V.Steps;
  R.ValueSteps = V.ValueSteps;
  R.FaultInjected = V.FaultInjected;
  R.FaultedId = V.FaultedInstructionId;
  return R;
}

/// Runs \p Fn on both backends and demands identical observable results.
/// Returns the (shared) outcome for additional expectations.
BackendRun expectParity(const Module &M, const std::string &Fn,
                        const std::vector<RtValue> &Args,
                        uint64_t MaxSteps = 100000000ull,
                        const FaultPlan *Plan = nullptr) {
  BackendRun I = runOnInterp(M, Fn, Args, MaxSteps, Plan);
  BackendRun V = runOnVm(M, Fn, Args, MaxSteps, Plan);
  EXPECT_EQ(I.Status, V.Status);
  EXPECT_EQ(I.Trap, V.Trap);
  EXPECT_EQ(I.Steps, V.Steps);
  EXPECT_EQ(I.ValueSteps, V.ValueSteps);
  EXPECT_EQ(I.FaultInjected, V.FaultInjected);
  EXPECT_EQ(I.FaultedId, V.FaultedId);
  if (I.Status == RunStatus::Finished) {
    EXPECT_EQ(I.Bits, V.Bits);
  }
  return I;
}

//===----------------------------------------------------------------------===//
// Trap-parity table
//===----------------------------------------------------------------------===//

/// Every trap source the interpreter test suite covers, replayed on the
/// VM: same Outcome-relevant fields, with and without mem2reg, plain and
/// duplication-protected.
struct TrapCase {
  const char *Name;
  const char *Src;
  const char *Fn;
  std::vector<int64_t> Args;
  bool Mem2Reg;
  TrapKind Expect;
};

const TrapCase TrapTable[] = {
    {"div-by-zero", "int f(int a) { return 10 / a; }", "f", {0}, true,
     TrapKind::DivByZero},
    {"intmin-div-minus-one", "int f(int a, int b) { return a / b; }", "f",
     {INT64_MIN, -1}, true, TrapKind::DivByZero},
    {"mod-by-zero", "int f(int a, int b) { return a % b; }", "f", {7, 0},
     true, TrapKind::DivByZero},
    {"intmin-mod-minus-one", "int f(int a, int b) { return a % b; }", "f",
     {INT64_MIN, -1}, true, TrapKind::DivByZero},
    // The memory model validates addresses, not per-object extents, so
    // out-of-bounds indices must escape the whole address space (or go
    // negative into the guard) to trap — same values as the interpreter
    // suite.
    {"oob-load",
     "double f(int i) { double a[4]; a[0] = 1.0;\n  return a[i]; }", "f",
     {100000000}, true, TrapKind::OutOfBounds},
    {"oob-load-negative",
     "double f(int i) { double a[4]; a[0] = 1.0;\n  return a[i]; }", "f",
     {-100000000}, true, TrapKind::OutOfBounds},
    {"oob-load-no-mem2reg",
     "double f(int i) { double a[4]; a[0] = 1.0;\n  return a[i]; }", "f",
     {100000000}, false, TrapKind::OutOfBounds},
    {"oob-store", "int f(int i) { double a[4]; a[i] = 1.0; return 0; }",
     "f", {100000000}, true, TrapKind::OutOfBounds},
    {"negative-index-store",
     "int f(int i) { double a[4]; a[i] = 1.0; return 0; }", "f", {-1},
     true, TrapKind::OutOfBounds},
    {"null-load", "double f() { double* p; return p[0]; }", "f", {}, true,
     TrapKind::OutOfBounds},
    {"null-store", "int f() { double* p; p[0] = 1.0; return 0; }", "f", {},
     true, TrapKind::OutOfBounds},
    {"null-load-no-mem2reg", "double f() { double* p; return p[3]; }", "f",
     {}, false, TrapKind::OutOfBounds},
    {"call-depth",
     "int f(int n) { if (n <= 0) return 0;\n  return f(n - 1); }", "f",
     {100000}, true, TrapKind::CallDepthExceeded},
};

TEST(VmTrapParity, PlainModules) {
  for (const TrapCase &C : TrapTable) {
    SCOPED_TRACE(C.Name);
    std::unique_ptr<Module> M = compile(C.Src, C.Mem2Reg);
    ASSERT_NE(M, nullptr);
    std::vector<RtValue> Args;
    for (int64_t A : C.Args)
      Args.push_back(RtValue::fromI64(A));
    BackendRun R = expectParity(*M, C.Fn, Args);
    EXPECT_EQ(R.Status, RunStatus::Trapped);
    EXPECT_EQ(R.Trap, C.Expect);
  }
}

TEST(VmTrapParity, ProtectedModules) {
  // Duplication triples the step stream and adds soc.check traffic in
  // front of every trap; the two backends must still agree exactly.
  for (const TrapCase &C : TrapTable) {
    SCOPED_TRACE(C.Name);
    std::unique_ptr<Module> M = compile(C.Src, C.Mem2Reg);
    ASSERT_NE(M, nullptr);
    duplicateAllInstructions(*M);
    M->renumber();
    std::vector<RtValue> Args;
    for (int64_t A : C.Args)
      Args.push_back(RtValue::fromI64(A));
    BackendRun R = expectParity(*M, C.Fn, Args);
    EXPECT_EQ(R.Status, RunStatus::Trapped);
    EXPECT_EQ(R.Trap, C.Expect);
  }
}

TEST(VmTrapParity, FpDivisionByZeroDoesNotTrap) {
  std::unique_ptr<Module> M = compile("double f(double a) { return a / 0.0; }");
  ASSERT_NE(M, nullptr);
  BackendRun R = expectParity(*M, "f", {RtValue::fromF64(1.0)});
  EXPECT_EQ(R.Status, RunStatus::Finished); // IEEE inf, no trap
}

TEST(VmTrapParity, OutOfStepsBudget) {
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) s = s + i;\n"
      "  return s; }");
  ASSERT_NE(M, nullptr);
  // Identical step accounting means the budget trips at the same count.
  BackendRun Full = expectParity(*M, "f", {RtValue::fromI64(1000)});
  EXPECT_EQ(Full.Status, RunStatus::Finished);
  for (uint64_t Budget : {Full.Steps - 1, Full.Steps / 2, uint64_t(7)}) {
    BackendRun R = expectParity(*M, "f", {RtValue::fromI64(1000)}, Budget);
    EXPECT_EQ(R.Status, RunStatus::OutOfSteps);
  }
}

TEST(VmTrapParity, FaultPlansHitTheSameSite) {
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 1;\n"
      "  for (int i = 0; i < n; i = i + 1) s = s + s % (i + 1);\n"
      "  return s; }");
  ASSERT_NE(M, nullptr);
  BackendRun Clean = expectParity(*M, "f", {RtValue::fromI64(40)});
  ASSERT_EQ(Clean.Status, RunStatus::Finished);
  ASSERT_GT(Clean.ValueSteps, 8u);
  // Keep the budget modest: a flipped loop counter can turn the loop
  // near-infinite, and parity on *when* the budget trips is exactly what
  // this test checks.
  const uint64_t Budget = 100000;
  for (uint64_t Step = 0; Step < Clean.ValueSteps; Step += 7) {
    for (uint64_t Bit : {0ull, 31ull, 52ull, 63ull}) {
      SCOPED_TRACE(::testing::Message() << "step=" << Step << " bit=" << Bit);
      FaultPlan Plan;
      Plan.TargetValueStep = Step;
      Plan.BitDraw = Bit;
      BackendRun R = expectParity(*M, "f", {RtValue::fromI64(40)}, Budget,
                                  &Plan);
      EXPECT_TRUE(R.FaultInjected);
    }
  }
}

//===----------------------------------------------------------------------===//
// Bytecode goldens
//===----------------------------------------------------------------------===//

std::string disasmOf(const Module &M, const char *Fn) {
  ModuleLayout Layout(M);
  std::string Err;
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout, &Err);
  EXPECT_NE(Prog, nullptr) << Err;
  if (!Prog)
    return std::string();
  return vm::disassemble(*Prog, Fn);
}

size_t countSubstr(const std::string &Haystack, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Haystack.find(Needle); At != std::string::npos;
       At = Haystack.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

TEST(VmBytecode, StraightLineGolden) {
  std::unique_ptr<Module> M =
      compile("int f(int a, int b) { return a + b; }");
  ASSERT_NE(M, nullptr);
  // Hand-derived: args in r0/r1, one Add (instruction id 0) into the
  // instruction's frame slot, Ret of that slot. No constants, no
  // staging registers.
  EXPECT_EQ(disasmOf(*M, "f"),
            "func f: args=2 slots=3 stage=0 consts=0 ret=w64\n"
            "     0: BinAdd    r2 <- r0, r1  id=0\n"
            "     1: Ret       r2  id=1\n");
}

TEST(VmBytecode, PhiEdgeMovesAndFallthrough) {
  // After mem2reg the loop becomes two phis (s, i). The compiler must
  // stage both incoming values on each edge (entry and latch) and commit
  // them atomically at the loop head.
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 0; int i = 0;\n"
      "  while (i < n) { s = s + i; i = i + 1; }\n"
      "  return s; }");
  ASSERT_NE(M, nullptr);
  // Hand-derived layout: both edges into the header (entry and latch)
  // end in unconditional Br, so their phi moves stage inline before the
  // branch; the header commits both phis atomically (ids 1/2 are the
  // value-step sites a FaultPlan can hit); the entry->header branch is
  // a fallthrough in all but PC assignment.
  EXPECT_EQ(disasmOf(*M, "f"),
            "func f: args=1 slots=6 stage=2 consts=2 ret=w64\n"
            "  const c0 = 0x0000000000000000\n"
            "  const c1 = 0x0000000000000001\n"
            "     0: Stage     s0 <- c0\n"
            "     1: Stage     s1 <- c0\n"
            "     2: Br        -> 3  ; fallthrough\n"
            "     3: PhiCommit n=2 [r1 <- s0 w64 id=1] [r2 <- s1 w64 id=2]\n"
            "     4: ICmpLT    r3 <- r1, r0  id=3\n"
            "     5: CondBr    r3 ? -> 6 : -> 11  id=4\n"
            "     6: BinAdd    r4 <- r2, r1  id=5\n"
            "     7: BinAdd    r5 <- r1, c1  id=6\n"
            "     8: Stage     s0 <- r5\n"
            "     9: Stage     s1 <- r4\n"
            "    10: Br        -> 3\n"
            "    11: Ret       r2  id=8\n");
}

TEST(VmBytecode, CondBrEdgeIntoPhiBlockGetsGotoTrampoline) {
  // `if` without `else`: the false leg of the entry CondBr jumps
  // straight into the join block's phi, so its edge move cannot run
  // inline in the predecessor (the true leg must not see it). The
  // compiler appends a trampoline (Stage + step-free Goto) after the
  // function body and retargets the CondBr at it.
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 1; if (n > 0) s = n + 2; return s; }");
  ASSERT_NE(M, nullptr);
  std::string D = disasmOf(*M, "f");
  SCOPED_TRACE(D);
  EXPECT_EQ(countSubstr(D, "PhiCommit"), 1u);
  EXPECT_EQ(countSubstr(D, "Goto"), 1u);
  // One Stage on the then-edge (inline) + one in the trampoline.
  EXPECT_EQ(countSubstr(D, "Stage"), 2u);
  EXPECT_GE(countSubstr(D, "; fallthrough"), 1u);

  // The trampoline preserves semantics on both legs, on both backends.
  for (int64_t N : {5, -5}) {
    BackendRun R = expectParity(*M, "f", {RtValue::fromI64(N)});
    EXPECT_EQ(R.Status, RunStatus::Finished);
    EXPECT_EQ(static_cast<int64_t>(R.Bits), N > 0 ? N + 2 : 1);
  }
}

TEST(VmBytecode, ConstantsArePooledAndDeduped) {
  std::unique_ptr<Module> M = compile(
      "int f(int a) { return a * 7 + 7 + 2; }");
  ASSERT_NE(M, nullptr);
  std::string D = disasmOf(*M, "f");
  SCOPED_TRACE(D);
  // 7 appears twice in the source but once in the pool.
  EXPECT_EQ(countSubstr(D, "const c0 = 0x0000000000000007"), 1u);
  EXPECT_EQ(countSubstr(D, "const c1 = 0x0000000000000002"), 1u);
  EXPECT_EQ(countSubstr(D, "consts=2"), 1u);
}

TEST(VmBytecode, SelftestBugChangesSemantics) {
  std::unique_ptr<Module> M =
      compile("int f(int a, int b) { return a - b; }");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout);
  ASSERT_NE(Prog, nullptr);
  ASSERT_TRUE(vm::injectSelftestBug(*Prog));
  vm::VmContext Ctx(*Prog);
  vm::VmContext::Result V = Ctx.run(
      Prog->indexOf("f"), {RtValue::fromI64(10), RtValue::fromI64(3)},
      nullptr, 1000);
  ASSERT_EQ(V.Status, RunStatus::Finished);
  EXPECT_EQ(V.ReturnValue.asI64(), -7); // operands swapped: b - a
}

//===----------------------------------------------------------------------===//
// Counting-profiler parity: the VM's in-dispatch profiling hook
//===----------------------------------------------------------------------===//

/// One counting-mode profiled clean run (optionally repeated to check
/// cross-run accumulation) on the chosen backend, via the same
/// profiled-run request the drivers use.
struct ProfiledRun {
  std::vector<uint64_t> Counts;
  uint64_t Steps = 0;
  std::vector<uint64_t> Hashes;
  ExecBackend Used = ExecBackend::Interp;
  const char *Fallback = nullptr;
};

ProfiledRun profileOn(const Module &M, const char *Fn,
                      const std::vector<RtValue> &Args, ExecBackend Backend,
                      unsigned Repeats = 1) {
  ModuleLayout Layout(M);
  FunctionHarness Harness(Fn, Args);
  CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
  Prof.enableFunctionHashes();
  for (unsigned R = 0; R != Repeats; ++R) {
    ExecutionRecord Rec = Harness.execute(
        Layout, RunRequest{.Backend = Backend, .Profiler = &Prof});
    EXPECT_EQ(Rec.Status, RunStatus::Finished);
    if (R + 1 == Repeats) {
      ProfiledRun Out;
      Out.Counts = Prof.flatCounts();
      Out.Steps = Prof.totalSteps();
      Out.Hashes = Prof.functionHashes();
      Out.Used = Rec.BackendUsed;
      Out.Fallback = Rec.FallbackReason;
      return Out;
    }
  }
  return ProfiledRun();
}

/// Profiles on both backends and demands the profiler's buffers end up
/// bit-identical: per-site counts, total steps, and the per-function
/// FNV stream hashes incremental campaigns key reuse on. Also asserts
/// the VM run really executed natively (no silent interpreter
/// fallback, which would make the comparison vacuous).
void expectProfileParity(const Module &M, const char *Fn,
                         const std::vector<RtValue> &Args,
                         unsigned Repeats = 1) {
  ProfiledRun I = profileOn(M, Fn, Args, ExecBackend::Interp, Repeats);
  ProfiledRun V = profileOn(M, Fn, Args, ExecBackend::Vm, Repeats);
  EXPECT_EQ(V.Used, ExecBackend::Vm) << "vm profiling fell back: "
                                     << (V.Fallback ? V.Fallback : "?");
  EXPECT_EQ(V.Fallback, nullptr);
  EXPECT_EQ(I.Used, ExecBackend::Interp);
  EXPECT_EQ(I.Counts, V.Counts);
  EXPECT_EQ(I.Steps, V.Steps);
  EXPECT_EQ(I.Hashes, V.Hashes);
  EXPECT_GT(V.Steps, 0u);
}

const char *const ProfileMicroPrograms[] = {
    // Straight line: every site counts once.
    "int f(int a, int b) { return a * b + 7; }",
    // Loop with phis: PhiCommit counts per phi per commit.
    "int f(int n) { int s = 0;\n"
    "  for (int i = 0; i < n; i = i + 1) s = s + i * i;\n"
    "  return s; }",
    // Calls: the call's own step plus the callee's, and the caller-side
    // return-value commit folds into the *caller's* function hash at the
    // call site — the trickiest attribution to keep bit-identical.
    "int g(int x) { return x * x + 1; }\n"
    "int f(int n) { int s = 0;\n"
    "  for (int i = 0; i < n; i = i + 1) s = s + g(i);\n"
    "  return s; }",
    // FP + memory traffic (loads/stores survive without mem2reg effects
    // on the dead-store side).
    "double f(int n) { double a[8]; double s = 0.0;\n"
    "  for (int i = 0; i < 8; i = i + 1) a[i] = 0.5 * i;\n"
    "  for (int j = 0; j < n; j = j + 1) s = s + a[j % 8];\n"
    "  return s; }",
};

TEST(VmCountingProfiler, MicroProgramParity) {
  for (const char *Src : ProfileMicroPrograms) {
    SCOPED_TRACE(Src);
    std::unique_ptr<Module> M = compile(Src);
    ASSERT_NE(M, nullptr);
    expectProfileParity(*M, "f", {RtValue::fromI64(13)});
  }
}

TEST(VmCountingProfiler, ProtectedMicroProgramParity) {
  // Duplication triples the commit stream (shadow + check sites); the
  // hashes cover every committed value, so any VM/interp divergence in
  // the protected step accounting shows up here.
  for (const char *Src : ProfileMicroPrograms) {
    SCOPED_TRACE(Src);
    std::unique_ptr<Module> M = compile(Src);
    ASSERT_NE(M, nullptr);
    duplicateAllInstructions(*M);
    M->renumber();
    expectProfileParity(*M, "f", {RtValue::fromI64(13)});
  }
}

TEST(VmCountingProfiler, AccumulatesAcrossRunsLikeAttach) {
  // Campaign-style reuse: one profiler, several clean runs. The hook
  // must accumulate into the same buffers attach() would.
  std::unique_ptr<Module> M = compile(ProfileMicroPrograms[2]);
  ASSERT_NE(M, nullptr);
  expectProfileParity(*M, "f", {RtValue::fromI64(9)}, 3);
}

/// One profiled run with an explicit budget and optional fault plan —
/// the abnormal-exit paths the drivers' profiled clean runs never take.
/// The VM reconstructs counts from control-transfer tallies after the
/// run, so the interesting cases are exactly the ones where a run stops
/// mid-flight and the final arrival must be corrected for.
struct AbnormalProfile {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  uint64_t Steps = 0;
  uint64_t ValueSteps = 0;
  std::vector<uint64_t> Counts;
  uint64_t CountedSteps = 0;
};

AbnormalProfile profiledRun(const ModuleLayout &Layout, const char *Fn,
                            const std::vector<RtValue> &Args, uint64_t Budget,
                            const FaultPlan *Plan,
                            ExecBackend Backend = ExecBackend::Interp) {
  CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
  FunctionHarness H(Fn, Args);
  ExecutionRecord R = H.execute(Layout, RunRequest{.Plan = Plan,
                                                   .StepBudget = Budget,
                                                   .Backend = Backend,
                                                   .Profiler = &Prof});
  EXPECT_EQ(R.BackendUsed, Backend);
  AbnormalProfile Out;
  Out.Status = R.Status;
  Out.Trap = R.Trap;
  Out.Steps = R.Steps;
  Out.ValueSteps = R.ValueSteps;
  Out.Counts = Prof.flatCounts();
  Out.CountedSteps = Prof.totalSteps();
  return Out;
}

/// Runs both backends under the same budget/plan and demands identical
/// outcomes AND identical per-site counts — including the partial final
/// straight-line run the VM has to carve off during reconstruction.
void expectAbnormalParity(const ModuleLayout &Layout, const char *Fn,
                          const std::vector<RtValue> &Args, uint64_t Budget,
                          const FaultPlan *Plan = nullptr) {
  AbnormalProfile I = profiledRun(Layout, Fn, Args, Budget, Plan);
  AbnormalProfile V =
      profiledRun(Layout, Fn, Args, Budget, Plan, ExecBackend::Vm);
  EXPECT_EQ(I.Status, V.Status);
  EXPECT_EQ(I.Trap, V.Trap);
  EXPECT_EQ(I.Steps, V.Steps);
  EXPECT_EQ(I.Counts, V.Counts);
  EXPECT_EQ(I.CountedSteps, V.CountedSteps);
}

TEST(VmCountingProfiler, BudgetSweepParity) {
  // Exhaust the budget at every possible step count: the run can stop
  // at any instruction — mid straight-line, at a branch, at a call, at
  // a phi group's single atomic budget check — and the counts must
  // still match the interpreter's exactly.
  std::unique_ptr<Module> M = compile(ProfileMicroPrograms[2]);
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::vector<RtValue> Args{RtValue::fromI64(5)};
  AbnormalProfile Full = profiledRun(Layout, "f", Args, UINT64_MAX, nullptr);
  ASSERT_EQ(Full.Status, RunStatus::Finished);
  ASSERT_GT(Full.Steps, 20u);
  for (uint64_t B = 0; B <= Full.Steps; ++B) {
    SCOPED_TRACE(::testing::Message() << "budget=" << B);
    expectAbnormalParity(Layout, "f", Args, B);
  }
}

TEST(VmCountingProfiler, ProtectedBudgetSweepParity) {
  // Same sweep over a protected module: PhiCommit groups, Check sites
  // and shadow instructions all in play.
  std::unique_ptr<Module> M = compile(ProfileMicroPrograms[1]);
  ASSERT_NE(M, nullptr);
  duplicateAllInstructions(*M);
  M->renumber();
  ModuleLayout Layout(*M);
  std::vector<RtValue> Args{RtValue::fromI64(6)};
  AbnormalProfile Full = profiledRun(Layout, "f", Args, UINT64_MAX, nullptr);
  ASSERT_EQ(Full.Status, RunStatus::Finished);
  for (uint64_t B = 0; B <= Full.Steps; B += 3)
    expectAbnormalParity(Layout, "f", Args, B);
}

TEST(VmCountingProfiler, TrapParity) {
  // Mid-loop division by zero: the trapping instruction counts its
  // step, everything after it in the straight line must not.
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) s = s + n / (i - 3);\n"
      "  return s; }");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::vector<RtValue> Args{RtValue::fromI64(10)};
  AbnormalProfile I = profiledRun(Layout, "f", Args, UINT64_MAX, nullptr);
  ASSERT_EQ(I.Status, RunStatus::Trapped);
  EXPECT_EQ(I.Trap, TrapKind::DivByZero);
  expectAbnormalParity(Layout, "f", Args, UINT64_MAX);
}

TEST(VmCountingProfiler, CallDepthTrapParity) {
  // Unbounded recursion trips the call-depth trap, which fires *before*
  // the call's step is counted — the one trap that needs the
  // uncounted-exit correction.
  std::unique_ptr<Module> M =
      compile("int f(int n) { return f(n + 1) + 1; }");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::vector<RtValue> Args{RtValue::fromI64(0)};
  AbnormalProfile I = profiledRun(Layout, "f", Args, UINT64_MAX, nullptr);
  ASSERT_EQ(I.Status, RunStatus::Trapped);
  EXPECT_EQ(I.Trap, TrapKind::CallDepthExceeded);
  expectAbnormalParity(Layout, "f", Args, UINT64_MAX);
}

TEST(VmCountingProfiler, FaultedRunParity) {
  // Profiled faulty runs across every outcome the fault can force
  // (finished, detected, trapped, out-of-steps): count parity must hold
  // wherever the run ends up stopping.
  std::unique_ptr<Module> M = compile(ProfileMicroPrograms[1]);
  ASSERT_NE(M, nullptr);
  duplicateAllInstructions(*M);
  M->renumber();
  ModuleLayout Layout(*M);
  std::vector<RtValue> Args{RtValue::fromI64(8)};
  AbnormalProfile Clean = profiledRun(Layout, "f", Args, UINT64_MAX, nullptr);
  ASSERT_EQ(Clean.Status, RunStatus::Finished);
  const uint64_t Budget = 100000;
  // Value steps bound the fault-site space.
  ASSERT_GT(Clean.ValueSteps, 8u);
  for (uint64_t Step = 0; Step < Clean.ValueSteps; Step += 5) {
    for (uint64_t Bit : {0ull, 63ull}) {
      SCOPED_TRACE(::testing::Message() << "step=" << Step << " bit=" << Bit);
      FaultPlan Plan;
      Plan.TargetValueStep = Step;
      Plan.BitDraw = Bit;
      expectAbnormalParity(Layout, "f", Args, Budget, &Plan);
    }
  }
}

//===----------------------------------------------------------------------===//
// Record-stream invariance: backend x threads x pruning x profiling
//===----------------------------------------------------------------------===//

std::string readTestdata(const char *Name) {
  std::ifstream In(std::string(IPAS_TESTDATA_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "cannot open testdata file " << Name;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The deterministic columns of one campaign's record stream, packed
/// into bytes (LatencyUs is wall time and documented as excluded).
std::string packRecordStream(const CampaignResult &R) {
  std::string Bytes;
  Bytes.reserve(R.Records.size() * 17);
  for (const InjectionRecord &Rec : R.Records) {
    char Buf[17];
    std::memcpy(Buf, &Rec.InstructionId, 4);
    std::memcpy(Buf + 4, &Rec.BitIndex, 4);
    std::memcpy(Buf + 8, &Rec.TargetValueStep, 8);
    Buf[16] = static_cast<char>(Rec.Result);
    Bytes.append(Buf, sizeof(Buf));
  }
  return Bytes;
}

void sweepRecordInvariance(const char *File, const char *Fn,
                           std::vector<RtValue> Args, size_t Runs) {
  std::string Src = readTestdata(File);
  ASSERT_FALSE(Src.empty());

  std::string GoldenStream;
  std::array<size_t, NumOutcomes> GoldenCounts{};
  bool HaveGoldenStream = false;
  size_t GoldenPruned = 0;
  std::vector<uint64_t> GoldenProfCounts, GoldenProfHashes;

  for (ExecBackend Backend : {ExecBackend::Interp, ExecBackend::Vm}) {
    for (unsigned Threads : {1u, 4u}) {
      for (bool Prune : {false, true}) {
        for (bool Profile : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << File << " backend="
                       << (Backend == ExecBackend::Vm ? "vm" : "interp")
                       << " threads=" << Threads << " prune=" << Prune
                       << " profile=" << Profile);
          // Fresh module/layout/harness per variant: every campaign must
          // reproduce the stream from scratch.
          std::unique_ptr<Module> M = compile(Src);
          ASSERT_NE(M, nullptr);
          duplicateAllInstructions(*M);
          M->renumber();
          SocPropagation Soc(*M);
          ModuleLayout Layout(*M);
          FunctionHarness Harness(Fn, Args);
          // The profiled clean run rides the same harness before the
          // campaign, exactly like the drivers; it must not perturb the
          // record stream, and its counts/hashes must themselves be
          // invariant across backends and thread counts.
          if (Profile) {
            CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
            Prof.enableFunctionHashes();
            ExecutionRecord PR = Harness.execute(
                Layout, RunRequest{.Backend = Backend, .Profiler = &Prof});
            ASSERT_EQ(PR.Status, RunStatus::Finished);
            EXPECT_EQ(PR.BackendUsed, Backend);
            if (GoldenProfCounts.empty()) {
              GoldenProfCounts = Prof.flatCounts();
              GoldenProfHashes = Prof.functionHashes();
            } else {
              EXPECT_EQ(Prof.flatCounts(), GoldenProfCounts);
              EXPECT_EQ(Prof.functionHashes(), GoldenProfHashes);
            }
          }
          CampaignConfig CC;
          CC.NumRuns = Runs;
          CC.Seed = 11;
          CC.NumThreads = Threads;
          CC.Backend = Backend;
          CC.TraceRuns = false;
          if (Prune)
            CC.ProvablyBenign = &Soc.provablyBenign();
          CampaignResult R = runCampaign(Harness, Layout, CC);
          ASSERT_EQ(R.Records.size(), Runs);
          // The backend split must account for every run, and the
          // requested backend must actually serve the executed runs.
          EXPECT_EQ(R.VmRuns + R.InterpRuns + R.PrunedRuns, Runs);
          if (Backend == ExecBackend::Vm)
            EXPECT_EQ(R.InterpRuns, 0u);
          else
            EXPECT_EQ(R.VmRuns, 0u);

          std::string Stream = packRecordStream(R);
          if (!HaveGoldenStream) {
            GoldenStream = Stream;
            GoldenCounts = R.Counts;
            HaveGoldenStream = true;
          } else {
            EXPECT_EQ(Stream, GoldenStream)
                << "record stream diverged from the first variant";
            EXPECT_EQ(R.Counts, GoldenCounts);
          }
          if (Prune) {
            if (GoldenPruned == 0)
              GoldenPruned = R.PrunedRuns;
            EXPECT_EQ(R.PrunedRuns, GoldenPruned);
          } else {
            EXPECT_EQ(R.PrunedRuns, 0u);
          }
        }
      }
    }
  }
}

TEST(VmRecordSweep, ResidualSixteenWayInvariance) {
  sweepRecordInvariance("residual.mc", "f", {RtValue::fromI64(32)}, 120);
}

TEST(VmRecordSweep, GenfuzzSixteenWayInvariance) {
  sweepRecordInvariance("genfuzz.mc", "run",
                        {RtValue::fromI64(3), RtValue::fromI64(5)}, 60);
}

// Testdata-scale profiler parity (the micro-program parity suite above
// pins the per-site contract; these two pin it on real programs with
// protection, calls, and memory traffic).
TEST(VmCountingProfiler, ResidualParity) {
  std::unique_ptr<Module> M = compile(readTestdata("residual.mc"));
  ASSERT_NE(M, nullptr);
  duplicateAllInstructions(*M);
  M->renumber();
  expectProfileParity(*M, "f", {RtValue::fromI64(32)});
}

TEST(VmCountingProfiler, GenfuzzParity) {
  std::unique_ptr<Module> M = compile(readTestdata("genfuzz.mc"));
  ASSERT_NE(M, nullptr);
  duplicateAllInstructions(*M);
  M->renumber();
  expectProfileParity(*M, "run",
                      {RtValue::fromI64(3), RtValue::fromI64(5)});
}

// The engine serves a VM request on the interpreter only where the run
// needs it, tags the record and bumps exactly that reason's counter;
// multi-rank workloads (once silently interpreted) report `other`.
TEST(VmFallback, EngineRoutesAndCountsEachReason) {
  std::unique_ptr<Module> M = compile(readTestdata("residual.mc"));
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  FunctionHarness H("f", {RtValue::fromI64(32)});
  ExecObserver Obs;
  std::vector<unsigned> Trace;
  CostProfiler Counting(Layout, CostProfiler::Mode::Counting);
  CostProfiler Context(Layout, CostProfiler::Mode::Context);

  std::unique_ptr<Workload> W = makeWorkload("IS");
  std::unique_ptr<Module> WM = compileWorkload(*W);
  ModuleLayout WLayout(*WM);
  WorkloadHarness Ranks(*W, 1, 2);

  auto &Reg = obs::MetricsRegistry::global();
  auto Check = [&](ProgramHarness &Harness, const ModuleLayout &L,
                   RunRequest Req, const char *Reason) {
    std::vector<uint64_t> Before;
    for (const char *Name : VmFallbackCounters)
      Before.push_back(Reg.counter(Name).value());
    Req.Backend = ExecBackend::Vm;
    ExecutionRecord R = Harness.execute(L, Req);
    EXPECT_EQ(R.Status, RunStatus::Finished) << Reason;
    EXPECT_TRUE(R.OutputValid) << Reason;
    EXPECT_EQ(R.BackendUsed, *Reason ? ExecBackend::Interp : ExecBackend::Vm)
        << Reason;
    EXPECT_STREQ(R.FallbackReason ? R.FallbackReason : "", Reason);
    for (size_t K = 0; K != NumVmFallbackReasons; ++K)
      EXPECT_EQ(Reg.counter(VmFallbackCounters[K]).value() - Before[K],
                VmFallbackCounters[K] == "vm.fallback." + std::string(Reason)
                    ? 1u
                    : 0u)
          << VmFallbackCounters[K] << " after '" << Reason << "'";
  };
  Check(H, Layout, RunRequest{}, "");
  Check(H, Layout, RunRequest{.Profiler = &Counting}, "");
  Check(H, Layout, RunRequest{.Observer = &Obs}, "observer");
  Check(H, Layout, RunRequest{.Profiler = &Context}, "profile_context");
  Check(H, Layout, RunRequest{.Trace = &Trace}, "trace");
  EXPECT_FALSE(Trace.empty());
  Check(Ranks, WLayout, RunRequest{}, "other");
}

} // namespace

//===----------------------------------------------------------------------===//
// Arena memory: lazily zeroed pages, page-granular reset
//===----------------------------------------------------------------------===//

TEST(VmArena, ResetTouchesOnlyWrittenPages) {
  Memory::Config Cfg;
  Cfg.StackBytes = 1ull << 20;
  Cfg.HeapBytes = 63ull << 20; // 64 MiB plus the guard page
  vm::VmArena A(Cfg);
  EXPECT_EQ(A.residentPages(), 0u) << "a fresh arena must cost no memory";

  uint64_t Stack = A.allocaBytes(64);
  uint64_t Heap = A.mallocBytes(2 * ZeroPages::PageBytes);
  // A faulted pointer: far from the data, near the top of the arena.
  uint64_t Wild = Memory::GuardBytes + Cfg.StackBytes + Cfg.HeapBytes - 64;
  ASSERT_NE(Stack, 0u);
  ASSERT_NE(Heap, 0u);
  ASSERT_TRUE(A.validRange(Wild, 8));
  A.write64(Stack, 0x1111);
  A.write64(Stack + 8, 0x2222);
  A.write64(Heap, 0x3333);
  A.write64(Heap + ZeroPages::PageBytes, 0x4444);
  A.write64(Wild, 0x5555);
  EXPECT_EQ(A.residentPages(), 4u);

  A.reset();
  EXPECT_LE(A.residentPages(), 4u)
      << "reset must not touch the pages between the data and the wild "
         "store";
  uint64_t Size = Memory::GuardBytes + Cfg.StackBytes + Cfg.HeapBytes;
  uint64_t NonZero = 0;
  for (uint64_t Addr = 0; Addr < Size; Addr += 8)
    NonZero += A.read64(Addr) != 0;
  EXPECT_EQ(NonZero, 0u);
  // The allocators rewound too.
  EXPECT_EQ(A.allocaBytes(64), Stack);
  EXPECT_EQ(A.mallocBytes(8), Heap);
}

TEST(VmArena, ResetClearsAStoreAcrossAPageBoundary) {
  Memory::Config Cfg;
  Cfg.StackBytes = 4 * ZeroPages::PageBytes;
  Cfg.HeapBytes = 4 * ZeroPages::PageBytes;
  vm::VmArena A(Cfg);
  // An unaligned faulted address whose 8 bytes span two pages.
  uint64_t Addr = 3 * ZeroPages::PageBytes - 4;
  ASSERT_TRUE(A.validRange(Addr, 8));
  A.write64(Addr, ~0ull);
  A.reset();
  EXPECT_EQ(A.read64(Addr - 4), 0u);
  EXPECT_EQ(A.read64(Addr + 4), 0u);
}
