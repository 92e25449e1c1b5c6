//===- tests/TestSocPropagation.cpp - Static SOC reachability tests -----------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the sink classification, an exhaustive dynamic soundness
/// check of the provably-benign verdicts on the tools/testdata programs,
/// the dataflow-derived feature columns, and campaign injection-site
/// pruning (stat counters plus record-stream equivalence).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Features.h"
#include "analysis/SocPropagation.h"
#include "fault/Campaign.h"
#include "ir/IRBuilder.h"

#include <fstream>
#include <sstream>

using namespace ipas;
using namespace ipas::testutil;

namespace {

std::string readTestdata(const std::string &Name) {
  std::ifstream In(std::string(IPAS_TESTDATA_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "cannot open testdata file " << Name;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const Instruction *findByOpcode(const Function *F, Opcode Op,
                                unsigned Skip = 0) {
  for (const BasicBlock *BB : *F)
    for (const Instruction *I : *BB)
      if (I->opcode() == Op) {
        if (Skip == 0)
          return I;
        --Skip;
      }
  return nullptr;
}

} // namespace

TEST(SocPropagation, DeadResultIsBenignLiveResultReachesReturn) {
  Module M("m");
  Function *F = M.createFunction("f", types::I64, {types::I64});
  BasicBlock *BB = F->addBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  auto *Dead = cast<Instruction>(B.createMul(F->arg(0), M.getInt64(3)));
  auto *Live = cast<Instruction>(B.createAdd(F->arg(0), M.getInt64(1)));
  B.createRet(Live);
  M.renumber();

  SocPropagation Soc(M);
  EXPECT_TRUE(Soc.isProvablyBenign(Dead));
  EXPECT_EQ(Soc.info(Dead).SinkMask, unsigned(SocSinkNone));
  EXPECT_EQ(Soc.info(Dead).SinkCount, 0u);
  EXPECT_EQ(Soc.info(Dead).MinSinkDistance, SocInstructionInfo::NoSink);

  EXPECT_FALSE(Soc.isProvablyBenign(Live));
  EXPECT_TRUE(Soc.info(Live).reaches(SocSinkReturn));
  EXPECT_FALSE(Soc.info(Live).reaches(SocSinkStore));
  EXPECT_EQ(Soc.info(Live).SinkCount, 1u);
  EXPECT_EQ(Soc.info(Live).MinSinkDistance, 1u);

  EXPECT_EQ(Soc.numBenign(), 1u);
  ASSERT_EQ(Soc.provablyBenign().size(), M.numInstructions());
  EXPECT_TRUE(Soc.provablyBenign()[Dead->id()]);
  EXPECT_FALSE(Soc.provablyBenign()[Live->id()]);
}

TEST(SocPropagation, StoreSinkAndMemoryEdgeToLoad) {
  // v is stored, loaded back, and returned: it reaches the store directly
  // (distance 1) and the return through the memory edge (distance 2).
  Module M("m");
  Function *F = M.createFunction("f", types::I64, {types::I64});
  BasicBlock *BB = F->addBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *P = B.createAlloca(1);
  auto *V = cast<Instruction>(B.createMul(F->arg(0), M.getInt64(2)));
  B.createStore(V, P);
  Value *W = B.createLoad(types::I64, P);
  B.createRet(W);
  M.renumber();

  SocPropagation Soc(M);
  const SocInstructionInfo &VI = Soc.info(V);
  EXPECT_TRUE(VI.reaches(SocSinkStore));
  EXPECT_TRUE(VI.reaches(SocSinkReturn));
  EXPECT_EQ(VI.MinSinkDistance, 1u);
  EXPECT_EQ(VI.SinkCount, 2u); // the store and the ret

  // The pointer is trap-capable at both its memory uses.
  const auto *Ptr = cast<Instruction>(P);
  EXPECT_TRUE(Soc.info(Ptr).reaches(SocSinkTrapCapable));
  EXPECT_FALSE(Soc.isProvablyBenign(Ptr));
}

TEST(SocPropagation, ControlFlowTrapAndCheckSinks) {
  // entry: c = icmp lt a, b; condbr c -> t | e
  // t:     d = a + 7; q = a / d; soc.check(q, q); ret q
  // e:     ret a  (arguments are not instructions; nothing to report)
  Module M("m");
  Function *F = M.createFunction("f", types::I64, {types::I64, types::I64});
  BasicBlock *Entry = F->addBlock("entry");
  BasicBlock *T = F->addBlock("t");
  BasicBlock *E = F->addBlock("e");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  auto *C = cast<Instruction>(
      B.createICmp(CmpPredicate::LT, F->arg(0), F->arg(1)));
  B.createCondBr(C, T, E);
  B.setInsertPoint(T);
  auto *D = cast<Instruction>(B.createAdd(F->arg(0), M.getInt64(7)));
  auto *Q = cast<Instruction>(B.createSDiv(F->arg(0), D));
  T->append(std::make_unique<CheckInst>(Q, Q));
  B.createRet(Q);
  B.setInsertPoint(E);
  B.createRet(F->arg(0));
  M.renumber();

  SocPropagation Soc(M);
  EXPECT_TRUE(Soc.info(C).reaches(SocSinkControlFlow));
  EXPECT_EQ(Soc.info(C).MinSinkDistance, 1u);
  // A corrupted divisor can trap; the quotient also flows onward.
  EXPECT_TRUE(Soc.info(D).reaches(SocSinkTrapCapable));
  EXPECT_TRUE(Soc.info(D).reaches(SocSinkReturn));
  EXPECT_TRUE(Soc.info(Q).reaches(SocSinkCheck));
  EXPECT_TRUE(Soc.info(Q).reaches(SocSinkReturn));
  // Nothing here is benign: every result feeds a sink.
  EXPECT_EQ(Soc.numBenign(), 0u);
}

TEST(SocPropagation, CallArgumentSink) {
  auto M = compile("double g(double x) { return x * 2.0; }\n"
                   "double f(double a) { return g(a + 1.0); }\n");
  ASSERT_NE(M, nullptr);
  const Instruction *Arg = findByOpcode(M->getFunction("f"), Opcode::FAdd);
  ASSERT_NE(Arg, nullptr);
  SocPropagation Soc(*M);
  EXPECT_TRUE(Soc.info(Arg).reaches(SocSinkCallArgument));
  // The conservative summary also propagates corruption into the call's
  // result and from there to the return.
  EXPECT_TRUE(Soc.info(Arg).reaches(SocSinkReturn));
}

TEST(SocPropagation, FindsDeadChainInResidualWorkload) {
  // residual.mc carries a dead diagnostic accumulator specifically so the
  // default (no DCE) pipeline has prunable injection sites.
  auto M = compile(readTestdata("residual.mc"));
  ASSERT_NE(M, nullptr);
  SocPropagation Soc(*M);
  EXPECT_GT(Soc.numBenign(), 0u);
}

//===----------------------------------------------------------------------===//
// Dynamic soundness: provably-benign verdicts vs. actual injections
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p FnName once cleanly with a value-step trace, then injects bit
/// flips at every dynamic step whose static instruction the analysis calls
/// benign, asserting the run stays bit-identical to the clean one.
void checkBenignVerdicts(const Module &M, const std::string &FnName,
                         const std::vector<RtValue> &Args,
                         size_t MaxInjections) {
  SocPropagation Soc(M);
  const std::vector<bool> &Benign = Soc.provablyBenign();

  ModuleLayout Layout(M);
  std::vector<unsigned> Trace;
  uint64_t CleanBits = 0, CleanSteps = 0;
  {
    ExecutionContext Ctx(Layout);
    Ctx.setValueStepTrace(&Trace);
    Ctx.start(M.getFunction(FnName), Args);
    ASSERT_EQ(Ctx.run(100000000ull), RunStatus::Finished);
    CleanBits = Ctx.returnValue().Bits;
    CleanSteps = Ctx.steps();
  }

  size_t Injected = 0;
  for (uint64_t Step = 0; Step != Trace.size(); ++Step) {
    if (!Benign[Trace[Step]])
      continue;
    for (unsigned Bit : {0u, 31u, 63u}) {
      FaultPlan Plan;
      Plan.TargetValueStep = Step;
      Plan.BitDraw = Bit;
      RunResult R = runFunction(M, FnName, Args, 100000000ull, &Plan);
      ASSERT_EQ(R.Status, RunStatus::Finished)
          << "benign injection at step " << Step << " bit " << Bit
          << " did not finish";
      EXPECT_EQ(R.Value.Bits, CleanBits)
          << "benign injection at step " << Step << " bit " << Bit
          << " changed the output";
      EXPECT_EQ(R.Steps, CleanSteps)
          << "benign injection at step " << Step << " bit " << Bit
          << " changed the step count";
    }
    if (++Injected == MaxInjections)
      break;
  }
  // The workloads below are chosen to have prunable sites; a soundness
  // sweep that never injects would be vacuous.
  EXPECT_GT(Injected, 0u);
}

} // namespace

TEST(SocPropagation, BenignVerdictsAreSoundOnResidual) {
  auto M = compile(readTestdata("residual.mc"));
  ASSERT_NE(M, nullptr);
  checkBenignVerdicts(*M, "f", {RtValue::fromI64(12)}, 150);
}

TEST(SocPropagation, BenignVerdictsAreSoundOnCallchain) {
  // callchain's callee `wobble` computes a dead local chain, so its
  // benign steps are reached through a call from `f`.
  auto M = compile(readTestdata("callchain.mc"));
  ASSERT_NE(M, nullptr);
  SocPropagation Soc(*M);
  ASSERT_GT(Soc.numBenign(), 0u);
  checkBenignVerdicts(*M, "f", {RtValue::fromI64(32)}, 100);
}

//===----------------------------------------------------------------------===//
// Dataflow-derived feature columns
//===----------------------------------------------------------------------===//

TEST(Features, DefaultLayoutStaysThirtyOneColumns) {
  auto M = compile("int f(int a) { return a * 2 + 1; }");
  ASSERT_NE(M, nullptr);
  FeatureExtractor FE;
  EXPECT_EQ(FE.numFeatures(), NumInstructionFeatures);
  std::vector<std::vector<double>> Rows = FE.extractModuleRows(*M);
  ASSERT_EQ(Rows.size(), M->numInstructions());
  for (const std::vector<double> &Row : Rows)
    EXPECT_EQ(Row.size(), NumInstructionFeatures);
}

TEST(Features, DataflowColumnsAppendAndMatchAnalysis) {
  Module M("m");
  Function *F = M.createFunction("f", types::I64, {types::I64});
  BasicBlock *BB = F->addBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  auto *Dead = cast<Instruction>(B.createMul(F->arg(0), M.getInt64(3)));
  auto *Live = cast<Instruction>(B.createAdd(F->arg(0), M.getInt64(1)));
  B.createRet(Live);
  M.renumber();

  FeatureOptions Opts;
  Opts.IncludeDataflowFeatures = true;
  FeatureExtractor FE(Opts);
  EXPECT_EQ(FE.numFeatures(), NumInstructionFeatures + NumDataflowFeatures);
  std::vector<std::vector<double>> Rows = FE.extractModuleRows(M);
  ASSERT_EQ(Rows.size(), M.numInstructions());

  const std::vector<double> &DeadRow = Rows[Dead->id()];
  const std::vector<double> &LiveRow = Rows[Live->id()];
  ASSERT_EQ(DeadRow.size(), FE.numFeatures());
  unsigned Base = NumInstructionFeatures;
  // Column order: store, call, return, control, trap, count, distance,
  // live-at-entry (see extendedFeatureName).
  EXPECT_EQ(DeadRow[Base + 2], 0.0); // dead result reaches no return
  EXPECT_EQ(LiveRow[Base + 2], 1.0);
  EXPECT_EQ(DeadRow[Base + 5], 0.0); // zero sinks
  EXPECT_EQ(LiveRow[Base + 5], 1.0);
  // No-sink distance uses the function size as its finite sentinel.
  EXPECT_EQ(DeadRow[Base + 6], static_cast<double>(F->numInstructions()));
  EXPECT_EQ(LiveRow[Base + 6], 1.0);

  // The 31 base columns are unchanged by the extension.
  std::vector<FeatureVector> Plain = FeatureExtractor().extractModule(M);
  for (unsigned K = 0; K != NumInstructionFeatures; ++K)
    EXPECT_EQ(LiveRow[K], Plain[Live->id()][K]);
}

TEST(Features, ExtendedNamesCoverAllColumns) {
  EXPECT_STREQ(extendedFeatureName(0), featureName(0));
  EXPECT_STREQ(extendedFeatureName(NumInstructionFeatures),
               "soc_reaches_store");
  EXPECT_STREQ(
      extendedFeatureName(NumInstructionFeatures + NumDataflowFeatures - 1),
      "live_values_at_entry");
  for (unsigned K = 0;
       K != NumInstructionFeatures + NumDataflowFeatures; ++K)
    EXPECT_NE(extendedFeatureName(K), nullptr);
}

//===----------------------------------------------------------------------===//
// Campaign injection-site pruning
//===----------------------------------------------------------------------===//

namespace {

/// TestCampaign's ToyHarness plus the traceValueSteps capability the
/// pruning path requires.
class TracedHarness : public ProgramHarness {
public:
  TracedHarness(const Module &M, int64_t Input) : M(M), Input(Input) {}

  ExecutionRecord execute(const ModuleLayout &Layout, const FaultPlan *Plan,
                          uint64_t StepBudget) override {
    ExecutionContext Ctx(Layout);
    if (Plan)
      Ctx.setFaultPlan(*Plan);
    Ctx.start(M.getFunction("f"), {RtValue::fromI64(Input)});
    RunStatus S = Ctx.run(StepBudget);
    ExecutionRecord R;
    R.Status = S;
    R.Trap = Ctx.trap();
    R.Steps = Ctx.steps();
    R.ValueSteps = Ctx.valueSteps();
    R.FaultInjected = Ctx.faultWasInjected();
    R.FaultedInstructionId = Ctx.faultedInstructionId();
    if (S == RunStatus::Finished) {
      if (!HaveGolden) {
        Golden = Ctx.returnValue().asI64();
        HaveGolden = true;
        R.OutputValid = true;
      } else {
        R.OutputValid = Ctx.returnValue().asI64() == Golden;
      }
    }
    return R;
  }

  std::vector<unsigned> traceValueSteps(const ModuleLayout &Layout) override {
    ExecutionContext Ctx(Layout);
    std::vector<unsigned> Trace;
    Ctx.setValueStepTrace(&Trace);
    Ctx.start(M.getFunction("f"), {RtValue::fromI64(Input)});
    if (Ctx.run(UINT64_MAX) != RunStatus::Finished)
      return {};
    return Trace;
  }

private:
  const Module &M;
  int64_t Input;
  int64_t Golden = 0;
  bool HaveGolden = false;
};

/// A loop with a dead diagnostic accumulator: the `dead` chain reaches no
/// sink, so a sizable fraction of dynamic value steps is prunable.
const char *DeadChainSrc =
    "int f(int n) {\n"
    "  double s = 0.0;\n"
    "  double dead = 0.0;\n"
    "  for (int i = 0; i < n; i = i + 1) {\n"
    "    s = s + 1.5 * i;\n"
    "    dead = dead + s * 2.0;\n"
    "  }\n"
    "  return (int)(s * 10.0);\n"
    "}\n";

} // namespace

TEST(CampaignPruning, PrunesSitesAndKeepsRecordsBitIdentical) {
  auto M = compile(DeadChainSrc);
  ASSERT_NE(M, nullptr);
  SocPropagation Soc(*M);
  ASSERT_GT(Soc.numBenign(), 0u);

  ModuleLayout Layout(*M);
  CampaignConfig Cfg;
  Cfg.NumRuns = 200;
  Cfg.Seed = 2016;

  TracedHarness Plain(*M, 40);
  CampaignResult Unpruned = runCampaign(Plain, Layout, Cfg);
  EXPECT_EQ(Unpruned.PrunedRuns, 0u);
  EXPECT_EQ(Unpruned.PrunedSites, 0u);

  Cfg.ProvablyBenign = &Soc.provablyBenign();
  TracedHarness Traced(*M, 40);
  CampaignResult Pruned = runCampaign(Traced, Layout, Cfg);

  // The analysis found sites, the campaign hit some, and skipped runs are
  // reported.
  EXPECT_GT(Pruned.PrunedRuns, 0u);
  EXPECT_GT(Pruned.PrunedSites, 0u);
  EXPECT_LE(Pruned.PrunedSites, Soc.numBenign());

  // Pruning is an optimization, not a semantic change: every record —
  // pruned or executed — must be bit-identical to the unpruned campaign's.
  ASSERT_EQ(Pruned.Records.size(), Unpruned.Records.size());
  for (size_t I = 0; I != Pruned.Records.size(); ++I) {
    EXPECT_EQ(Pruned.Records[I].InstructionId,
              Unpruned.Records[I].InstructionId);
    EXPECT_EQ(Pruned.Records[I].BitIndex, Unpruned.Records[I].BitIndex);
    EXPECT_EQ(Pruned.Records[I].TargetValueStep,
              Unpruned.Records[I].TargetValueStep);
    EXPECT_EQ(Pruned.Records[I].Result, Unpruned.Records[I].Result);
  }
  for (size_t K = 0; K != NumOutcomes; ++K)
    EXPECT_EQ(Pruned.Counts[K], Unpruned.Counts[K]);
}

TEST(CampaignPruning, HarnessWithoutTraceSupportDisablesPruning) {
  // The base-class traceValueSteps returns an empty trace; the campaign
  // must fall back to executing everything.
  class UntracedHarness : public TracedHarness {
  public:
    using TracedHarness::TracedHarness;
    std::vector<unsigned> traceValueSteps(const ModuleLayout &) override {
      return {};
    }
  };

  auto M = compile(DeadChainSrc);
  ASSERT_NE(M, nullptr);
  SocPropagation Soc(*M);
  ModuleLayout Layout(*M);
  CampaignConfig Cfg;
  Cfg.NumRuns = 40;
  Cfg.ProvablyBenign = &Soc.provablyBenign();
  UntracedHarness H(*M, 20);
  CampaignResult R = runCampaign(H, Layout, Cfg);
  EXPECT_EQ(R.PrunedRuns, 0u);
  EXPECT_EQ(R.Records.size(), 40u);
}
