//===- tests/TestSummary.cpp - Interprocedural summaries + incremental --------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Covers the compositional SOC-sensitivity layer end to end: canonical
/// content hashes (formatting-invariant, edit-sensitive), reachable-set
/// hashes, the SCC fixpoint on mutual recursion, dead argument channels
/// and the interprocedural-beats-intraprocedural guarantee (with a
/// dynamic soundness sweep), the `.ipsum` summary store, the v2 record
/// store function table (plus v1 compatibility), and the incremental
/// re-campaigning driver's reuse semantics.
///
//===----------------------------------------------------------------------===//

#include "StoreSamples.h"
#include "TestUtil.h"

#include "analysis/CallGraph.h"
#include "analysis/FunctionSummary.h"
#include "analysis/SocPropagation.h"
#include "fault/FunctionHarness.h"
#include "fault/Incremental.h"
#include "fault/RecordBuild.h"
#include "obs/BinCodec.h"
#include "obs/RecordStore.h"
#include "obs/SummaryStore.h"

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

const char *const CalleeSrc =
    "double g(double x) {\n"
    "  return x * 2.0 + 1.0;\n"
    "}\n"
    "double f(int n) {\n"
    "  return g(0.5 * n);\n"
    "}\n";

/// CalleeSrc reformatted: comments, blank lines, and indentation only.
const char *const CalleeSrcReformatted =
    "// a comment the hash must not see\n"
    "double g(double x) { return x * 2.0 + 1.0; }\n"
    "\n"
    "double f(int n) {\n"
    "      return g(0.5 * n); // trailing note\n"
    "}\n";

/// CalleeSrc with g's body changed (2.0 -> 3.0).
const char *const CalleeSrcEdited =
    "double g(double x) {\n"
    "  return x * 3.0 + 1.0;\n"
    "}\n"
    "double f(int n) {\n"
    "  return g(0.5 * n);\n"
    "}\n";

uint64_t functionContentHash(const Module &M, const std::string &Name) {
  const Function *F = M.getFunction(Name);
  EXPECT_NE(F, nullptr);
  return F ? hashFunctionBody(*F) : 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Canonical content and reachable-set hashes
//===----------------------------------------------------------------------===//

TEST(Summary, ContentHashIgnoresWhitespaceAndComments) {
  auto A = compile(CalleeSrc);
  auto B = compile(CalleeSrcReformatted);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(functionContentHash(*A, "g"), functionContentHash(*B, "g"));
  EXPECT_EQ(functionContentHash(*A, "f"), functionContentHash(*B, "f"));
}

TEST(Summary, ContentHashTracksSemanticEdit) {
  auto A = compile(CalleeSrc);
  auto B = compile(CalleeSrcEdited);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_NE(functionContentHash(*A, "g"), functionContentHash(*B, "g"));
  // f's own body is untouched by the callee edit.
  EXPECT_EQ(functionContentHash(*A, "f"), functionContentHash(*B, "f"));
}

TEST(Summary, ContentHashIndependentOfModulePosition) {
  // The hash must not see module-wide instruction ids, or adding a
  // function above would invalidate every function below it.
  auto A = compile(CalleeSrc);
  auto B = compile(std::string("double pad(double q) { return q + 4.0; }\n") +
                   CalleeSrc);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(functionContentHash(*A, "g"), functionContentHash(*B, "g"));
}

TEST(Summary, ReachableHashSeesCalleeEditContentHashDoesNot) {
  auto A = compile(CalleeSrc);
  auto B = compile(CalleeSrcEdited);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  CallGraph CGA(*A), CGB(*B);
  ModuleSummaries SA(*A, CGA), SB(*B, CGB);
  const Function *FA = A->getFunction("f"), *FB = B->getFunction("f");
  EXPECT_EQ(SA.contentHash(FA), SB.contentHash(FB));
  EXPECT_NE(SA.reachableHash(FA), SB.reachableHash(FB));
  // g reaches only itself; its two hashes track its own body together.
  const Function *GA = A->getFunction("g"), *GB = B->getFunction("g");
  EXPECT_NE(SA.reachableHash(GA), SB.reachableHash(GB));
}

//===----------------------------------------------------------------------===//
// SCC fixpoint and argument channels
//===----------------------------------------------------------------------===//

namespace {

const char *const MutualSrc =
    "int even(int n) {\n"
    "  if (n <= 0) { return 1; }\n"
    "  return odd(n - 1);\n"
    "}\n"
    "int odd(int n) {\n"
    "  if (n <= 0) { return n; }\n"
    "  return even(n - 1);\n"
    "}\n"
    "int f(int n) {\n"
    "  return even(n);\n"
    "}\n";

} // namespace

TEST(Summary, SccFixpointConvergesOnMutualRecursion) {
  auto M = compile(MutualSrc);
  ASSERT_NE(M, nullptr);
  CallGraph CG(*M);
  const Function *Even = M->getFunction("even");
  const Function *Odd = M->getFunction("odd");
  EXPECT_TRUE(CG.isRecursive(Even));
  EXPECT_TRUE(CG.isRecursive(Odd));
  EXPECT_EQ(CG.sccIndex(Even), CG.sccIndex(Odd));

  // The summary computation must terminate (finite lattice fixpoint) and
  // agree for the two symmetric members: n feeds the branch (a control
  // sink) in both, and flows to the returned value — directly in odd's
  // base case, and in even only through odd's summary, so the flag must
  // propagate around the recursion cycle.
  ModuleSummaries MS(*M, CG);
  const FunctionSummary &SE = MS.summary(Even);
  const FunctionSummary &SO = MS.summary(Odd);
  ASSERT_EQ(SE.Args.size(), 1u);
  ASSERT_EQ(SO.Args.size(), 1u);
  EXPECT_EQ(SE.Args[0].SinkMask, SO.Args[0].SinkMask);
  EXPECT_NE(SE.Args[0].SinkMask, SocSinkNone);
  EXPECT_TRUE(SE.Args[0].FlowsToReturn);
  // Mutual recursion shares one reachable set, hence one reachable hash.
  EXPECT_EQ(MS.reachableHash(Even), MS.reachableHash(Odd));
}

TEST(Summary, DeadArgumentChannelSharpensInterproceduralAnalysis) {
  auto M = compile(readTestdata("callchain.mc"));
  ASSERT_NE(M, nullptr);
  CallGraph CG(*M);
  ModuleSummaries MS(*M, CG);

  // wobble's first argument feeds a chain that reaches no sink and never
  // the return value; the second reaches the return.
  const FunctionSummary &SW = MS.summary(M->getFunction("wobble"));
  ASSERT_EQ(SW.Args.size(), 2u);
  EXPECT_EQ(SW.Args[0].SinkMask, SocSinkNone);
  EXPECT_FALSE(SW.Args[0].FlowsToReturn);
  EXPECT_TRUE(SW.Args[1].FlowsToReturn);

  // That dead channel is exactly what the summary-aware propagation
  // exploits: strictly more provably-benign sites than the call-barrier
  // model on this call-bearing program.
  SocPropagation Intra(*M);
  SocPropagation Inter(*M, MS);
  EXPECT_GT(Inter.numBenign(), Intra.numBenign());
  // Monotonicity: interprocedural knowledge only ever removes sinks.
  const std::vector<bool> &IntraB = Intra.provablyBenign();
  const std::vector<bool> &InterB = Inter.provablyBenign();
  ASSERT_EQ(IntraB.size(), InterB.size());
  for (size_t I = 0; I != IntraB.size(); ++I)
    EXPECT_LE(IntraB[I], InterB[I]) << "instruction " << I
                                    << " lost its benign verdict";
}

TEST(Summary, InterprocBenignVerdictsAreSoundOnCallchain) {
  // Every site the summary-aware analysis calls benign must survive real
  // injections with bit-identical output and step count — the dynamic
  // soundness gate for the sharper verdicts.
  auto M = compile(readTestdata("callchain.mc"));
  ASSERT_NE(M, nullptr);
  CallGraph CG(*M);
  ModuleSummaries MS(*M, CG);
  SocPropagation Soc(*M, MS);
  ASSERT_GT(Soc.numBenign(), 0u);
  const std::vector<bool> &Benign = Soc.provablyBenign();

  ModuleLayout Layout(*M);
  std::vector<RtValue> Args = {RtValue::fromI64(20)};
  std::vector<unsigned> Trace;
  uint64_t CleanBits = 0, CleanSteps = 0;
  {
    ExecutionContext Ctx(Layout);
    Ctx.setValueStepTrace(&Trace);
    Ctx.start(M->getFunction("f"), Args);
    ASSERT_EQ(Ctx.run(100000000ull), RunStatus::Finished);
    CleanBits = Ctx.returnValue().Bits;
    CleanSteps = Ctx.steps();
  }

  size_t Injected = 0;
  for (uint64_t Step = 0; Step != Trace.size() && Injected < 120; ++Step) {
    if (!Benign[Trace[Step]])
      continue;
    ++Injected;
    for (unsigned Bit : {0u, 31u, 63u}) {
      FaultPlan Plan;
      Plan.TargetValueStep = Step;
      Plan.BitDraw = Bit;
      RunResult R = runFunction(*M, "f", Args, 100000000ull, &Plan);
      ASSERT_EQ(R.Status, RunStatus::Finished);
      EXPECT_EQ(R.Value.Bits, CleanBits)
          << "interproc-benign injection at step " << Step << " bit " << Bit
          << " changed the output";
      EXPECT_EQ(R.Steps, CleanSteps);
    }
  }
  EXPECT_GT(Injected, 0u) << "sweep never injected; test is vacuous";
}

//===----------------------------------------------------------------------===//
// .ipsum summary store
//===----------------------------------------------------------------------===//

obs::SummaryStore testutil::sampleSummaryStore() {
  obs::SummaryStore S;
  S.ModuleName = "mod \"quoted\"\nname";
  S.EntryFunction = "f";
  obs::SummaryFunc G;
  G.Name = "g";
  G.ContentHash = 0xfeedfacecafebeefull;
  G.ReachableHash = 0x123456789abcdef0ull;
  G.Args = {{0u, 0, 0xffffffffu}, {7u, 1, 2u}};
  obs::SummaryFunc F;
  F.Name = "f";
  F.ContentHash = 42;
  F.ReachableHash = UINT64_MAX;
  F.Callees = {"g", "g2"};
  F.Args = {{1u, 0, 0u}};
  S.Functions = {G, F};
  return S;
}

TEST(SummaryStore, RoundTripIsByteIdentical) {
  obs::SummaryStore S = sampleSummaryStore();
  std::string Bytes;
  obs::serializeSummaryStore(S, Bytes);

  obs::SummaryStore P;
  std::string Err;
  ASSERT_TRUE(obs::parseSummaryStore(P, Bytes, &Err)) << Err;
  EXPECT_EQ(P.ModuleName, S.ModuleName);
  EXPECT_EQ(P.EntryFunction, S.EntryFunction);
  ASSERT_EQ(P.Functions.size(), 2u);
  EXPECT_EQ(P.Functions[0].ContentHash, 0xfeedfacecafebeefull);
  ASSERT_EQ(P.Functions[0].Args.size(), 2u);
  EXPECT_EQ(P.Functions[0].Args[1].SinkMask, 7u);
  EXPECT_EQ(P.Functions[0].Args[1].FlowsToReturn, 1u);
  EXPECT_EQ(P.Functions[0].Args[1].MinSinkDistance, 2u);
  EXPECT_EQ(P.Functions[1].Callees,
            (std::vector<std::string>{"g", "g2"}));

  std::string Bytes2;
  obs::serializeSummaryStore(P, Bytes2);
  EXPECT_EQ(Bytes, Bytes2);
}

//===----------------------------------------------------------------------===//
// Record store v2: the function table, and v1 compatibility
//===----------------------------------------------------------------------===//

namespace {

obs::RecordStore storeWithMetas() {
  obs::RecordStore S;
  S.ModuleName = "m";
  S.EntryFunction = "f";
  S.Seed = 99;
  S.Functions = {"g", "f"};
  obs::InjectionRow R;
  R.InstructionId = 3;
  R.BitIndex = 5;
  R.Outcome = 2;
  S.Rows = {R};
  obs::FunctionMeta FM;
  FM.FunctionIndex = 1;
  FM.ContentHash = 0xabcdull;
  FM.ReachableHash = 0x1234ull;
  FM.ProfileHash = 0x77ull;
  FM.FirstInstructionId = 2;
  FM.LocalValueSteps = 40;
  FM.PlannedRuns = 1;
  FM.ReusedRuns = 1;
  FM.Invalidation =
      static_cast<uint8_t>(InvalidationReason::Reused);
  S.FunctionMetas = {FM};
  S.tallyOutcomes();
  return S;
}

} // namespace

TEST(RecordStoreV2, FunctionMetasRoundTrip) {
  obs::RecordStore S = storeWithMetas();
  std::string Bytes;
  obs::serializeRecordStore(S, Bytes);
  obs::RecordStore P;
  std::string Err;
  ASSERT_TRUE(obs::parseRecordStore(P, Bytes, &Err)) << Err;
  ASSERT_EQ(P.FunctionMetas.size(), 1u);
  EXPECT_EQ(P.FunctionMetas[0].FunctionIndex, 1u);
  EXPECT_EQ(P.FunctionMetas[0].ContentHash, 0xabcdull);
  EXPECT_EQ(P.FunctionMetas[0].ProfileHash, 0x77ull);
  EXPECT_EQ(P.FunctionMetas[0].LocalValueSteps, 40u);
  EXPECT_EQ(P.FunctionMetas[0].Invalidation,
            static_cast<uint8_t>(InvalidationReason::Reused));
}

TEST(RecordStoreV2, ParsesVersion1Files) {
  // A v1 file is a v2 file minus the trailing FunctionMetas section. The
  // writer always emits v2, so craft the v1 image by hand: drop the
  // empty-table count (the final 8 payload bytes) and reseal as v1.
  obs::RecordStore S = storeWithMetas();
  S.FunctionMetas.clear();
  std::string Bytes;
  obs::serializeRecordStore(S, Bytes);

  constexpr size_t HeaderLen = 8 + 4 + 8;
  std::string Payload = Bytes.substr(HeaderLen, Bytes.size() - HeaderLen - 16);
  const obs::StoreMagic Magic = {'I', 'P', 'A', 'S', 'R', 'E', 'C', '\0'};
  std::string V1 = obs::seal(Magic, 1, Payload);

  obs::RecordStore P;
  std::string Err;
  ASSERT_TRUE(obs::parseRecordStore(P, V1, &Err)) << Err;
  EXPECT_TRUE(P.FunctionMetas.empty());
  EXPECT_EQ(P.Rows.size(), 1u);
  EXPECT_EQ(P.Seed, 99u);
}

//===----------------------------------------------------------------------===//
// Incremental re-campaigning
//===----------------------------------------------------------------------===//

namespace {

struct IncrementalRun {
  std::unique_ptr<Module> M;
  std::unique_ptr<ModuleLayout> Layout;
  IncrementalResult R;
};

IncrementalRun runIncremental(const std::string &Source, size_t NumRuns,
                              uint64_t Seed, const obs::RecordStore *Prior,
                              unsigned Threads = 1,
                              ExecBackend Backend = ExecBackend::Interp) {
  IncrementalRun Out;
  Out.M = compile(Source);
  EXPECT_NE(Out.M, nullptr);
  Out.Layout = std::make_unique<ModuleLayout>(*Out.M);
  FunctionHarness Harness("f", {RtValue::fromI64(24)});
  IncrementalConfig Cfg;
  Cfg.Base.NumRuns = NumRuns;
  Cfg.Base.Seed = Seed;
  Cfg.Base.NumThreads = Threads;
  Cfg.Base.Backend = Backend;
  Cfg.Prior = Prior;
  Out.R = runIncrementalCampaign(Harness, *Out.Layout, *Out.M, Cfg);
  return Out;
}

obs::RecordStore toStore(const IncrementalRun &Run, uint64_t Seed) {
  RecordBuildInputs In;
  In.M = Run.M.get();
  In.Result = &Run.R.Campaign;
  In.EntryFunction = "f";
  In.Seed = Seed;
  In.FunctionMetas = &Run.R.FunctionMetas;
  return buildRecordStore(In);
}

void expectSameRecords(const CampaignResult &A, const CampaignResult &B) {
  ASSERT_EQ(A.Records.size(), B.Records.size());
  for (size_t I = 0; I != A.Records.size(); ++I) {
    EXPECT_EQ(A.Records[I].InstructionId, B.Records[I].InstructionId);
    EXPECT_EQ(A.Records[I].BitIndex, B.Records[I].BitIndex);
    EXPECT_EQ(A.Records[I].Result, B.Records[I].Result);
  }
  for (size_t K = 0; K != NumOutcomes; ++K)
    EXPECT_EQ(A.Counts[K], B.Counts[K]);
}

} // namespace

TEST(Incremental, SecondRunReusesEverything) {
  IPAS_SEED_TRACE(testSeed());
  std::string Src = readTestdata("residual.mc");
  IncrementalRun First = runIncremental(Src, 90, testSeed(), nullptr);
  EXPECT_EQ(First.R.ReusedRuns, 0u);
  EXPECT_EQ(First.R.ExecutedRuns, 90u);
  ASSERT_EQ(First.R.FunctionMetas.size(), First.M->numFunctions());

  obs::RecordStore Prior = toStore(First, testSeed());
  IncrementalRun Second = runIncremental(Src, 90, testSeed(), &Prior);
  EXPECT_EQ(Second.R.ExecutedRuns, 0u);
  EXPECT_EQ(Second.R.ReusedRuns, 90u);
  for (size_t I = 0; I != Second.R.FunctionMetas.size(); ++I)
    EXPECT_EQ(Second.R.reason(I), InvalidationReason::Reused);
  expectSameRecords(First.R.Campaign, Second.R.Campaign);
}

TEST(Incremental, ReportsTheBackendSplitOfExecutedRuns) {
  IPAS_SEED_TRACE(testSeed());
  IncrementalRun First =
      runIncremental(readTestdata("residual.mc"), 90, testSeed(), nullptr);
  EXPECT_EQ(First.R.Campaign.InterpRuns, First.R.ExecutedRuns);
  EXPECT_EQ(First.R.Campaign.VmRuns, 0u);
  obs::RecordStore Prior = toStore(First, testSeed());

  std::string Edited = readTestdata("residual_edit.mc");
  IncrementalRun Vm = runIncremental(Edited, 90, testSeed(), &Prior, 1,
                                     ExecBackend::Vm);
  EXPECT_GT(Vm.R.ExecutedRuns, 0u);
  EXPECT_EQ(Vm.R.Campaign.VmRuns, Vm.R.ExecutedRuns);
  EXPECT_EQ(Vm.R.Campaign.InterpRuns, 0u);
  // Same rows as the interpreter leg.
  IncrementalRun Interp = runIncremental(Edited, 90, testSeed(), &Prior);
  expectSameRecords(Interp.R.Campaign, Vm.R.Campaign);
}

TEST(Incremental, EditReexecutesOnlyTheEditedFunction) {
  IPAS_SEED_TRACE(testSeed());
  IncrementalRun First =
      runIncremental(readTestdata("residual.mc"), 90, testSeed(), nullptr);
  obs::RecordStore Prior = toStore(First, testSeed());

  // residual_edit.mc changes only f (value-preservingly), so smooth's
  // rows carry over and strictly less than half of the campaign re-runs.
  std::string Edited = readTestdata("residual_edit.mc");
  IncrementalRun Inc = runIncremental(Edited, 90, testSeed(), &Prior);
  ASSERT_EQ(Inc.R.FunctionMetas.size(), 2u);
  const Function *Smooth = Inc.M->getFunction("smooth");
  const Function *F = Inc.M->getFunction("f");
  ASSERT_NE(Smooth, nullptr);
  ASSERT_NE(F, nullptr);
  for (size_t I = 0; I != Inc.R.FunctionMetas.size(); ++I) {
    const Function *Fn =
        Inc.M->function(Inc.R.FunctionMetas[I].FunctionIndex);
    if (Fn == Smooth)
      EXPECT_EQ(Inc.R.reason(I), InvalidationReason::Reused);
    else
      EXPECT_EQ(Inc.R.reason(I), InvalidationReason::ContentChanged);
  }
  EXPECT_GT(Inc.R.ReusedRuns, 0u);
  EXPECT_LT(Inc.R.ExecutedRuns, 45u) << "edit re-ran half the campaign";

  // Merged outcomes must be indistinguishable from a from-scratch
  // incremental campaign on the edited module.
  IncrementalRun Scratch = runIncremental(Edited, 90, testSeed(), nullptr);
  expectSameRecords(Scratch.R.Campaign, Inc.R.Campaign);
}

TEST(Incremental, RecordsInvariantAcrossThreadCounts) {
  IPAS_SEED_TRACE(testSeed());
  std::string Src = readTestdata("residual.mc");
  IncrementalRun Serial = runIncremental(Src, 80, testSeed(), nullptr, 1);
  IncrementalRun Threaded = runIncremental(Src, 80, testSeed(), nullptr, 4);
  expectSameRecords(Serial.R.Campaign, Threaded.R.Campaign);
  // The function table — hashes included — is part of the contract.
  ASSERT_EQ(Serial.R.FunctionMetas.size(), Threaded.R.FunctionMetas.size());
  for (size_t I = 0; I != Serial.R.FunctionMetas.size(); ++I) {
    EXPECT_EQ(Serial.R.FunctionMetas[I].ContentHash,
              Threaded.R.FunctionMetas[I].ContentHash);
    EXPECT_EQ(Serial.R.FunctionMetas[I].ProfileHash,
              Threaded.R.FunctionMetas[I].ProfileHash);
    EXPECT_EQ(Serial.R.FunctionMetas[I].PlannedRuns,
              Threaded.R.FunctionMetas[I].PlannedRuns);
  }
}

TEST(Incremental, PriorWithDifferentSeedIsIgnored) {
  IPAS_SEED_TRACE(testSeed());
  std::string Src = readTestdata("residual.mc");
  IncrementalRun First = runIncremental(Src, 60, testSeed(), nullptr);
  obs::RecordStore Prior = toStore(First, testSeed());
  Prior.Seed ^= 1; // a campaign from some other seed
  IncrementalRun Second = runIncremental(Src, 60, testSeed(), &Prior);
  EXPECT_EQ(Second.R.ReusedRuns, 0u);
  EXPECT_EQ(Second.R.ExecutedRuns, 60u);
  for (size_t I = 0; I != Second.R.FunctionMetas.size(); ++I)
    EXPECT_EQ(Second.R.reason(I), InvalidationReason::Fresh);
}

TEST(Incremental, TamperedPriorRowsFallBackToExecution) {
  IPAS_SEED_TRACE(testSeed());
  std::string Src = readTestdata("residual.mc");
  IncrementalRun First = runIncremental(Src, 60, testSeed(), nullptr);
  obs::RecordStore Prior = toStore(First, testSeed());
  ASSERT_FALSE(Prior.Rows.empty());
  // Corrupt one row's bit index: the per-row plan verification must
  // demote that function to PlanMismatch, not hand back wrong data.
  Prior.Rows[0].BitIndex = (Prior.Rows[0].BitIndex + 1) % 64;
  IncrementalRun Second = runIncremental(Src, 60, testSeed(), &Prior);
  bool SawMismatch = false;
  for (size_t I = 0; I != Second.R.FunctionMetas.size(); ++I)
    SawMismatch |= Second.R.reason(I) == InvalidationReason::PlanMismatch;
  EXPECT_TRUE(SawMismatch);
  expectSameRecords(First.R.Campaign, Second.R.Campaign);
}
