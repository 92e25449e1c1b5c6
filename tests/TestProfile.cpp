//===- tests/TestProfile.cpp - Cost profiler + .ipprof store tests --------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the instruction-level cost profiler (interp/CostProfiler),
/// the .ipprof store codec (obs/ProfileStore), protection-overhead
/// attribution (fault/ProfileBuild), and the guarantee that profiling a
/// clean run never perturbs the deterministic campaign record stream.
///
//===----------------------------------------------------------------------===//

#include "StoreSamples.h"
#include "TestUtil.h"

#include "fault/Campaign.h"
#include "fault/FunctionHarness.h"
#include "fault/ProfileBuild.h"
#include "fault/RecordBuild.h"
#include "interp/CostProfiler.h"
#include "obs/ProfileStore.h"
#include "obs/RecordStore.h"
#include "transform/Duplication.h"

using namespace ipas;
using testutil::compile;
using testutil::sampleProfileStore;

namespace {

/// One profiled clean run of M.Fn(Args); asserts the run finishes with
/// valid output and that the profiler's step total matches the
/// interpreter's.
struct ProfiledRun {
  std::vector<uint64_t> Counts;
  uint64_t Steps = 0;
  uint64_t Cycles = 0;
  std::vector<uint64_t> Hashes;
  size_t NumContexts = 0;
};

ProfiledRun profileOnce(const Module &M, const std::string &Fn,
                        std::vector<RtValue> Args, CostProfiler::Mode Mode,
                        bool WithHashes = false) {
  ModuleLayout Layout(M);
  FunctionHarness H(Fn, std::move(Args));
  CostProfiler Prof(Layout, Mode);
  if (WithHashes)
    Prof.enableFunctionHashes();
  ExecutionRecord Rec = H.executeProfiled(Layout, Prof);
  EXPECT_EQ(Rec.Status, RunStatus::Finished);
  EXPECT_TRUE(Rec.OutputValid);
  EXPECT_EQ(Prof.totalSteps(), Rec.Steps);
  ProfiledRun R;
  R.Counts = Prof.flatCounts();
  R.Steps = Prof.totalSteps();
  R.Cycles = Prof.totalCycles();
  R.Hashes = Prof.functionHashes();
  R.NumContexts = Prof.contexts().size();
  EXPECT_EQ(R.Cycles, cyclesOfCounts(M, R.Counts, Prof.model()));
  return R;
}

/// Ids of every instruction of M with the given opcode.
std::vector<unsigned> idsOf(const Module &M, Opcode Op) {
  std::vector<unsigned> Ids;
  for (const Instruction *I : M.allInstructions())
    if (I->opcode() == Op)
      Ids.push_back(I->id());
  return Ids;
}

TEST(CostProfiler, StraightLineCountsAreAllOne) {
  std::unique_ptr<Module> M =
      compile("int f(int a, int b) { return a * b + a; }");
  ASSERT_NE(M, nullptr);
  ProfiledRun R = profileOnce(*M, "f",
                              {RtValue::fromI64(6), RtValue::fromI64(7)},
                              CostProfiler::Mode::Counting);
  // Straight-line code: every static instruction executes exactly once.
  ASSERT_EQ(R.Counts.size(), M->numInstructions());
  for (size_t Id = 0; Id != R.Counts.size(); ++Id)
    EXPECT_EQ(R.Counts[Id], 1u) << "instruction id " << Id;
  EXPECT_EQ(R.Steps, M->numInstructions());
}

TEST(CostProfiler, LoopCountsMatchHandDerivation) {
  std::unique_ptr<Module> M = compile(
      "int f(int n) {\n"
      "  int s = 1;\n"
      "  int i = 0;\n"
      "  while (i < n) { s = s * 3; i = i + 1; }\n"
      "  return s;\n"
      "}\n");
  ASSERT_NE(M, nullptr);
  ProfiledRun R = profileOnce(*M, "f", {RtValue::fromI64(5)},
                              CostProfiler::Mode::Counting);
  // n = 5: the body's unique multiply runs 5 times, the header's unique
  // compare 6 times (5 taken + 1 exit), the return once.
  std::vector<unsigned> Muls = idsOf(*M, Opcode::Mul);
  std::vector<unsigned> Cmps = idsOf(*M, Opcode::ICmp);
  std::vector<unsigned> Rets = idsOf(*M, Opcode::Ret);
  ASSERT_EQ(Muls.size(), 1u);
  ASSERT_EQ(Cmps.size(), 1u);
  ASSERT_EQ(Rets.size(), 1u);
  EXPECT_EQ(R.Counts[Muls[0]], 5u);
  EXPECT_EQ(R.Counts[Cmps[0]], 6u);
  EXPECT_EQ(R.Counts[Rets[0]], 1u);
  uint64_t Sum = 0;
  for (uint64_t C : R.Counts)
    Sum += C;
  EXPECT_EQ(Sum, R.Steps);
}

const char *CallTreeSource =
    "int g(int x) { return x + 1; }\n"
    "int h(int x) { return g(x) + 2; }\n"
    "int f(int x) { return g(x) + h(x); }\n";

TEST(CostProfiler, ContextTreeHasOneNodePerCallPath) {
  std::unique_ptr<Module> M = compile(CallTreeSource);
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  FunctionHarness H("f", {RtValue::fromI64(7)});
  CostProfiler Prof(Layout, CostProfiler::Mode::Context);
  ExecutionRecord Rec = H.executeProfiled(Layout, Prof);
  ASSERT_EQ(Rec.Status, RunStatus::Finished);

  // Call paths: f, f->g, f->h, f->h->g — four distinct contexts.
  const std::vector<CostProfiler::ContextNode> &Nodes = Prof.contexts();
  ASSERT_EQ(Nodes.size(), 4u);
  EXPECT_EQ(Nodes[0].Parent, UINT32_MAX);
  ASSERT_NE(Nodes[0].Fn, nullptr);
  EXPECT_EQ(Nodes[0].Fn->name(), "f");
  size_t GNodes = 0, HNodes = 0;
  uint64_t NodeCycleSum = 0, NodeStepSum = 0;
  for (const CostProfiler::ContextNode &N : Nodes) {
    ASSERT_NE(N.Fn, nullptr);
    GNodes += N.Fn->name() == "g";
    HNodes += N.Fn->name() == "h";
    NodeCycleSum += Prof.nodeCycles(N);
    for (uint64_t C : N.Counts)
      NodeStepSum += C;
  }
  EXPECT_EQ(GNodes, 2u); // called from f and from h
  EXPECT_EQ(HNodes, 1u);
  // Exclusive node costs partition the whole run.
  EXPECT_EQ(NodeCycleSum, Prof.totalCycles());
  EXPECT_EQ(NodeStepSum, Prof.totalSteps());
}

TEST(CostProfiler, FlatCountsAgreeAcrossModes) {
  std::unique_ptr<Module> M = compile(CallTreeSource);
  ASSERT_NE(M, nullptr);
  ProfiledRun Counting = profileOnce(*M, "f", {RtValue::fromI64(7)},
                                     CostProfiler::Mode::Counting);
  ProfiledRun Context = profileOnce(*M, "f", {RtValue::fromI64(7)},
                                    CostProfiler::Mode::Context);
  EXPECT_EQ(Counting.Counts, Context.Counts);
  EXPECT_EQ(Counting.Steps, Context.Steps);
  EXPECT_EQ(Counting.Cycles, Context.Cycles);
}

TEST(CostProfiler, FunctionHashesAgreeAcrossModes) {
  std::unique_ptr<Module> M = compile(CallTreeSource);
  ASSERT_NE(M, nullptr);
  ProfiledRun Counting = profileOnce(*M, "f", {RtValue::fromI64(9)},
                                     CostProfiler::Mode::Counting,
                                     /*WithHashes=*/true);
  ProfiledRun Context = profileOnce(*M, "f", {RtValue::fromI64(9)},
                                    CostProfiler::Mode::Context,
                                    /*WithHashes=*/true);
  ASSERT_EQ(Counting.Hashes.size(), M->numFunctions());
  EXPECT_EQ(Counting.Hashes, Context.Hashes);
  // The run commits values in every function, so no hash stays at the
  // FNV offset basis.
  constexpr uint64_t FnvOffsetBasis = 1469598103934665603ull;
  for (uint64_t H : Counting.Hashes)
    EXPECT_NE(H, FnvOffsetBasis);
}

TEST(ProfileBuild, StoreMirrorsProfilerCounts) {
  std::unique_ptr<Module> M = compile(CallTreeSource);
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  FunctionHarness H("f", {RtValue::fromI64(7)});
  CostProfiler Prof(Layout, CostProfiler::Mode::Context);
  ProfileBuildInputs In;
  In.EntryFunction = "f";
  In.Label = "test";
  In.SourceText = CallTreeSource;
  obs::ProfileStore S;
  std::string Err;
  ASSERT_TRUE(buildProfileStore(H, Layout, Prof, In, S, &Err)) << Err;

  EXPECT_EQ(S.Mode, obs::ProfileContext);
  EXPECT_EQ(S.CleanSteps, Prof.totalSteps());
  EXPECT_EQ(S.TotalCycles, Prof.totalCycles());
  ASSERT_EQ(S.Instructions.size(), M->numInstructions());
  ASSERT_EQ(S.Functions.size(), M->numFunctions());
  ASSERT_EQ(S.Contexts.size(), 4u);
  EXPECT_FALSE(S.LineCosts.empty());
  uint64_t InstrCycleSum = 0, InstrCountSum = 0;
  for (const obs::ProfInstr &P : S.Instructions) {
    InstrCycleSum += P.Cycles;
    InstrCountSum += P.ExecCount;
  }
  EXPECT_EQ(InstrCycleSum, S.TotalCycles);
  EXPECT_EQ(InstrCountSum, S.CleanSteps);
  uint64_t CtxCycleSum = 0;
  for (const obs::ProfContext &C : S.Contexts)
    CtxCycleSum += C.Cycles;
  EXPECT_EQ(CtxCycleSum, S.TotalCycles);
  uint64_t LineCycleSum = 0;
  for (const obs::ProfLineCost &LC : S.LineCosts)
    LineCycleSum += LC.Cycles;
  EXPECT_EQ(LineCycleSum, S.TotalCycles);
}

} // namespace

/// A fully-populated store exercising every column of the codec.
obs::ProfileStore testutil::sampleProfileStore() {
  obs::ProfileStore S;
  S.ModuleName = "m";
  S.EntryFunction = "f";
  S.Label = "unit";
  S.SourceText = "int f() { return 42; }\n";
  S.Mode = obs::ProfileContext;
  S.CleanSteps = 123;
  S.TotalCycles = 456;
  S.HasOverhead = 1;
  S.BaselineTotalCycles = 400;
  S.CostModelCycles = {1, 3, 24, 4};
  S.Functions = {"f", "g"};
  S.Instructions.push_back({7, 2, 1, 3, 9, 1, 55, 110});
  S.Instructions.push_back({8, 5, 0, 4, 1, 0, 66, 66});
  S.Contexts.push_back({0, UINT32_MAX, 0, 100, 300});
  S.Contexts.push_back({1, 0, 1, 23, 156});
  S.LineCosts.push_back({1, 1, 3, 55, 110});
  S.Overheads.push_back({7, 2, 1, 3, 9, 1, 100, 100, 40, 16});
  return S;
}

namespace {

TEST(ProfileStore, SerializeParseRoundTrip) {
  obs::ProfileStore S = sampleProfileStore();
  std::string Bytes;
  obs::serializeProfileStore(S, Bytes);
  obs::ProfileStore R;
  std::string Err;
  ASSERT_TRUE(obs::parseProfileStore(R, Bytes, &Err)) << Err;

  EXPECT_EQ(R.ModuleName, S.ModuleName);
  EXPECT_EQ(R.EntryFunction, S.EntryFunction);
  EXPECT_EQ(R.Label, S.Label);
  EXPECT_EQ(R.SourceText, S.SourceText);
  EXPECT_EQ(R.Mode, S.Mode);
  EXPECT_EQ(R.CleanSteps, S.CleanSteps);
  EXPECT_EQ(R.TotalCycles, S.TotalCycles);
  EXPECT_EQ(R.HasOverhead, S.HasOverhead);
  EXPECT_EQ(R.BaselineTotalCycles, S.BaselineTotalCycles);
  EXPECT_EQ(R.CostModelCycles, S.CostModelCycles);
  EXPECT_EQ(R.Functions, S.Functions);
  ASSERT_EQ(R.Instructions.size(), S.Instructions.size());
  EXPECT_EQ(R.Instructions[0].Id, S.Instructions[0].Id);
  EXPECT_EQ(R.Instructions[0].DupRole, S.Instructions[0].DupRole);
  EXPECT_EQ(R.Instructions[1].Cycles, S.Instructions[1].Cycles);
  ASSERT_EQ(R.Contexts.size(), S.Contexts.size());
  EXPECT_EQ(R.Contexts[0].Parent, UINT32_MAX);
  EXPECT_EQ(R.Contexts[1].Cycles, S.Contexts[1].Cycles);
  ASSERT_EQ(R.LineCosts.size(), S.LineCosts.size());
  EXPECT_EQ(R.LineCosts[0].Count, S.LineCosts[0].Count);
  ASSERT_EQ(R.Overheads.size(), S.Overheads.size());
  EXPECT_EQ(obs::marginalCycles(R.Overheads[0]),
            obs::marginalCycles(S.Overheads[0]));
}

const char *KernelSource =
    "int f(int n) {\n"
    "  int s = 1;\n"
    "  int i = 0;\n"
    "  while (i < n) { s = s * 3 + i; i = i + 1; }\n"
    "  return s;\n"
    "}\n";

TEST(ProfileBuild, OverheadAttributionIsConservativeExact) {
  std::unique_ptr<Module> Base = compile(KernelSource);
  std::unique_ptr<Module> Prot = compile(KernelSource);
  ASSERT_NE(Base, nullptr);
  ASSERT_NE(Prot, nullptr);
  duplicateAllInstructions(*Prot);
  Prot->renumber();
  ASSERT_TRUE(verifyModule(*Prot).empty());
  ASSERT_GT(Prot->numInstructions(), Base->numInstructions());

  ProfiledRun BaseRun = profileOnce(*Base, "f", {RtValue::fromI64(12)},
                                    CostProfiler::Mode::Counting);
  ProfiledRun ProtRun = profileOnce(*Prot, "f", {RtValue::fromI64(12)},
                                    CostProfiler::Mode::Counting);
  ASSERT_GT(ProtRun.Cycles, BaseRun.Cycles);

  obs::ProfileStore S;
  std::string Err;
  ASSERT_TRUE(attributeOverhead(*Base, BaseRun.Counts, *Prot, ProtRun.Counts,
                                CostModel::standard(), S, &Err))
      << Err;
  EXPECT_EQ(S.HasOverhead, 1u);
  EXPECT_EQ(S.BaselineTotalCycles, BaseRun.Cycles);
  // One row per baseline site, every added cycle charged somewhere, and
  // the attribution is conservative-exact: marginal costs sum to the
  // protected-minus-baseline delta, with nothing double-counted.
  ASSERT_EQ(S.Overheads.size(), Base->numInstructions());
  int64_t MarginalSum = 0;
  uint64_t BaseSum = 0, ProtSum = 0;
  for (const obs::ProfSiteOverhead &O : S.Overheads) {
    EXPECT_GE(obs::marginalCycles(O), 0);
    MarginalSum += obs::marginalCycles(O);
    BaseSum += O.BaseCycles;
    ProtSum += O.ProtCycles + O.ShadowCycles + O.CheckCycles;
  }
  EXPECT_EQ(BaseSum, BaseRun.Cycles);
  EXPECT_EQ(ProtSum, ProtRun.Cycles);
  EXPECT_EQ(MarginalSum,
            static_cast<int64_t>(ProtRun.Cycles) -
                static_cast<int64_t>(BaseRun.Cycles));
}

TEST(ProfileBuild, OverheadAttributionRejectsMismatchedModules) {
  std::unique_ptr<Module> Base =
      compile("int f(int a, int b) { return a * b + a; }");
  std::unique_ptr<Module> Prot = compile(KernelSource);
  ASSERT_NE(Base, nullptr);
  ASSERT_NE(Prot, nullptr);
  duplicateAllInstructions(*Prot);
  Prot->renumber();
  std::vector<uint64_t> BaseCounts(Base->numInstructions(), 1);
  std::vector<uint64_t> ProtCounts(Prot->numInstructions(), 1);
  obs::ProfileStore S;
  std::string Err;
  EXPECT_FALSE(attributeOverhead(*Base, BaseCounts, *Prot, ProtCounts,
                                 CostModel::standard(), S, &Err));
  EXPECT_FALSE(Err.empty());
}

/// Runs one protected campaign and returns its serialized record store
/// with the (nondeterministic, wall-clock) per-run latency column
/// zeroed; everything else in the store is part of the deterministic
/// record stream and must be byte-identical however the campaign ran.
std::string campaignRecordBytes(unsigned NumThreads, bool ProfileFirst) {
  std::unique_ptr<Module> M = testutil::compile(KernelSource);
  if (!M)
    return {};
  duplicateAllInstructions(*M);
  M->renumber();
  ModuleLayout Layout(*M);
  FunctionHarness H("f", {RtValue::fromI64(20)});

  if (ProfileFirst) {
    CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
    Prof.enableFunctionHashes();
    ExecutionRecord Rec = H.executeProfiled(Layout, Prof);
    EXPECT_EQ(Rec.Status, RunStatus::Finished);
  }

  CampaignConfig Cfg;
  Cfg.NumRuns = 80;
  Cfg.Seed = testutil::testSeed();
  Cfg.NumThreads = NumThreads;
  Cfg.TraceRuns = false;
  Cfg.ProgressEvery = Cfg.NumRuns; // keep test logs quiet
  CampaignResult Result = runCampaign(H, Layout, Cfg);

  RecordBuildInputs In;
  In.M = M.get();
  In.Result = &Result;
  In.EntryFunction = "f";
  In.Label = "profile-identity";
  In.Seed = Cfg.Seed;
  obs::RecordStore S = buildRecordStore(In);
  for (obs::InjectionRow &Row : S.Rows)
    Row.LatencyUs = 0;
  std::string Bytes;
  obs::serializeRecordStore(S, Bytes);
  return Bytes;
}

TEST(ProfileBuild, RecordStreamUnperturbedByProfilingAndThreads) {
  IPAS_SEED_TRACE(testutil::testSeed());
  std::string Plain1 = campaignRecordBytes(1, /*ProfileFirst=*/false);
  std::string Profiled1 = campaignRecordBytes(1, /*ProfileFirst=*/true);
  std::string Profiled4 = campaignRecordBytes(4, /*ProfileFirst=*/true);
  std::string Plain4 = campaignRecordBytes(4, /*ProfileFirst=*/false);
  ASSERT_FALSE(Plain1.empty());
  EXPECT_EQ(Plain1, Profiled1);
  EXPECT_EQ(Plain1, Profiled4);
  EXPECT_EQ(Plain1, Plain4);
}

} // namespace
