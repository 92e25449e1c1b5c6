//===- tests/TestPropagation.cpp - Dynamic fault-propagation tracer -------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ground-truth tests for the shadow-dual-execution tracer
// (fault/Propagation.h) and the `.ipprop` store (obs/Propagation.h):
//
//  - micro-programs with hand-derived masking behaviour, asserting the
//    exact depth / masking / first-output-step the tracer must report;
//  - a field-level store round trip (corruption classes are in
//    TestStoreEnvelope.cpp);
//  - a soundness sweep over generated programs: no statically
//    provably-benign site may ever dynamically corrupt output;
//  - the record-stream invariant: sampled tracing must not perturb the
//    campaign's (InstructionId, BitIndex, Result) stream at any thread
//    count.
//
//===----------------------------------------------------------------------===//

#include "StoreSamples.h"
#include "TestUtil.h"

#include "analysis/SocPropagation.h"
#include "fault/Campaign.h"
#include "fault/FunctionHarness.h"
#include "fault/Propagation.h"
#include "obs/Propagation.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

using namespace ipas;
using testutil::compile;
using testutil::samplePropagationStore;

namespace {

unsigned firstInstructionId(const Module &M, Opcode Op) {
  for (const Instruction *I : M.allInstructions())
    if (I->opcode() == Op)
      return I->id();
  ADD_FAILURE() << "no instruction with opcode " << opcodeName(Op);
  return 0;
}

uint64_t stepOf(const std::vector<unsigned> &Trace, unsigned Id) {
  for (size_t K = 0; K != Trace.size(); ++K)
    if (Trace[K] == Id)
      return K;
  ADD_FAILURE() << "instruction " << Id << " never committed a value";
  return 0;
}

/// Traces one injection into the first \p TargetOp of f(\p Arg), flipping
/// \p Bit of its first dynamic result commit.
struct TraceResult {
  obs::PropRecord Rec;
  unsigned TargetId = 0;
};

TraceResult traceOne(Module &M, int64_t Arg, Opcode TargetOp, unsigned Bit) {
  ModuleLayout Layout(M);
  FunctionHarness H("f", {RtValue::fromI64(Arg)});
  TraceResult TR;
  TR.TargetId = firstInstructionId(M, TargetOp);
  std::vector<unsigned> Trace = H.traceValueSteps(Layout);
  EXPECT_FALSE(Trace.empty());
  uint64_t Step = stepOf(Trace, TR.TargetId);
  CleanReference Ref = captureCleanReference(H, Layout);
  EXPECT_TRUE(Ref.Valid);
  FaultPlan Plan;
  Plan.TargetValueStep = Step;
  Plan.BitDraw = Bit;
  TR.Rec = tracePropagation(H, Layout, Ref, Plan, 100000000ull, /*RunIndex=*/0);
  return TR;
}

const obs::PropEdge *findEdge(const obs::PropRecord &R, unsigned Src,
                              unsigned Dst, uint8_t Kind) {
  for (const obs::PropEdge &E : R.Edges)
    if (E.SrcId == Src && E.DstId == Dst && E.Kind == Kind)
      return &E;
  return nullptr;
}

uint8_t code(Outcome O) { return static_cast<uint8_t>(O); }
uint8_t code(Opcode O) { return static_cast<uint8_t>(O); }

} // namespace

//===----------------------------------------------------------------------===//
// Known-masking micro-programs: exact depth / masking / latency.
//===----------------------------------------------------------------------===//

// The corrupted value reaches a store, then a clean store to the same
// slot overwrites it before anything reads it back: exactly one
// overwrite-masking event, depth 1 (injection -> store), and the
// corruption *did* reach output state for two value steps.
TEST(Propagation, OverwriteMaskingIsAttributedToTheStore) {
  // a[0] stays in memory (arrays are not mem2reg-promoted), so the IR is
  //   %0 = add %x, 1 ; store %0 ; store 5 ; %4 = load ; %5 = add %4, 1
  std::unique_ptr<Module> M = compile("int f(int x) {\n"
                                      "  int a[1];\n"
                                      "  int t = x + 1;\n"
                                      "  a[0] = t;\n"
                                      "  a[0] = 5;\n"
                                      "  return a[0] + 1;\n"
                                      "}\n");
  ASSERT_TRUE(M);
  TraceResult TR = traceOne(*M, /*Arg=*/4, Opcode::Add, /*Bit=*/3);
  const obs::PropRecord &R = TR.Rec;

  EXPECT_EQ(R.Outcome, code(Outcome::Masked));
  EXPECT_EQ(R.ControlDiverged, 0u);
  EXPECT_EQ(R.CorruptedValues, 1u);  // Only the injected add itself.
  EXPECT_EQ(R.PropagationDepth, 1u); // Injection (0) -> store (1).
  EXPECT_EQ(R.MaskedOverwrite, 1u);
  EXPECT_EQ(R.MaskedLogical, 0u);
  EXPECT_EQ(R.MaskedDead, 0u);
  EXPECT_EQ(R.DynReachMask, obs::PropReachStore);

  // Corruption touched the stored output slot before dying: commits run
  // alloca(0) add(1=injection) gep(2) store, so the store fires at value
  // step 3 and the latency is 2.
  EXPECT_TRUE(R.reachedOutput());
  EXPECT_EQ(R.latencyToOutput(), 2u);

  ASSERT_EQ(R.Edges.size(), 1u);
  unsigned StoreId = firstInstructionId(*M, Opcode::Store);
  const obs::PropEdge *E =
      findEdge(R, TR.TargetId, StoreId, obs::PropEdgeDefUse);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Count, 1u);

  ASSERT_EQ(R.Masks.size(), 1u);
  EXPECT_EQ(R.Masks[0].Opcode, code(Opcode::Store));
  EXPECT_EQ(R.Masks[0].Kind, obs::PropMaskOverwrite);
  EXPECT_EQ(R.Masks[0].Count, 1u);
}

// Flipping bit 0 of x*x (16 -> 17) cannot change `t >= 0`: the icmp
// absorbs the corruption logically. Nothing propagates, nothing reaches
// any sink, and control flow stays on the clean path.
TEST(Propagation, LogicalMaskingAtComparison) {
  std::unique_ptr<Module> M = compile("int f(int x) {\n"
                                      "  int t = x * x;\n"
                                      "  if (t >= 0) { return 1; }\n"
                                      "  return 0;\n"
                                      "}\n");
  ASSERT_TRUE(M);
  TraceResult TR = traceOne(*M, /*Arg=*/4, Opcode::Mul, /*Bit=*/0);
  const obs::PropRecord &R = TR.Rec;

  EXPECT_EQ(R.Outcome, code(Outcome::Masked));
  EXPECT_EQ(R.ControlDiverged, 0u);
  EXPECT_EQ(R.CorruptedValues, 1u);
  EXPECT_EQ(R.PropagationDepth, 0u); // Corruption never left the injection.
  EXPECT_EQ(R.MaskedLogical, 1u);
  EXPECT_EQ(R.MaskedOverwrite, 0u);
  EXPECT_EQ(R.MaskedDead, 0u);
  EXPECT_EQ(R.DynReachMask, 0u);
  EXPECT_TRUE(R.Edges.empty());

  EXPECT_FALSE(R.reachedOutput());
  EXPECT_EQ(R.latencyToOutput(), UINT64_MAX);

  ASSERT_EQ(R.Masks.size(), 1u);
  EXPECT_EQ(R.Masks[0].Opcode, code(Opcode::ICmp));
  EXPECT_EQ(R.Masks[0].Kind, obs::PropMaskLogical);
  EXPECT_EQ(R.Masks[0].Count, 1u);
}

// A straight-line chain add -> mul -> sub -> store -> load -> ret: every
// hop corrupts, nothing masks, and the record reconstructs the exact
// chain with its depth and output latency.
TEST(Propagation, ChainDepthLatencyAndEdges) {
  std::unique_ptr<Module> M = compile("int f(int x) {\n"
                                      "  int a[1];\n"
                                      "  int t1 = x + 1;\n"
                                      "  int t2 = t1 * 2;\n"
                                      "  int t3 = t2 - 3;\n"
                                      "  a[0] = t3;\n"
                                      "  return a[0];\n"
                                      "}\n");
  ASSERT_TRUE(M);
  // x=4: t1 = 5, flip bit 2 -> 1; every downstream value diverges.
  TraceResult TR = traceOne(*M, /*Arg=*/4, Opcode::Add, /*Bit=*/2);
  const obs::PropRecord &R = TR.Rec;

  EXPECT_EQ(R.Outcome, code(Outcome::SOC));
  EXPECT_EQ(R.ControlDiverged, 0u);
  EXPECT_EQ(R.CorruptedValues, 4u);  // add, mul, sub, load.
  EXPECT_EQ(R.PropagationDepth, 4u); // ... store = 3, load = 4.
  EXPECT_EQ(R.MaskedLogical, 0u);
  EXPECT_EQ(R.MaskedOverwrite, 0u);
  EXPECT_EQ(R.MaskedDead, 0u);
  EXPECT_TRUE(R.Masks.empty());
  EXPECT_EQ(R.DynReachMask, obs::PropReachStore | obs::PropReachReturn);

  // Commits: alloca(0) add(1=injection) mul(2) sub(3) gep(4), store at
  // value step 5 -> latency 4.
  EXPECT_TRUE(R.reachedOutput());
  EXPECT_EQ(R.latencyToOutput(), 4u);

  unsigned AddId = TR.TargetId;
  unsigned MulId = firstInstructionId(*M, Opcode::Mul);
  unsigned SubId = firstInstructionId(*M, Opcode::Sub);
  unsigned StoreId = firstInstructionId(*M, Opcode::Store);
  unsigned LoadId = firstInstructionId(*M, Opcode::Load);
  ASSERT_EQ(R.Edges.size(), 4u);
  EXPECT_NE(findEdge(R, AddId, MulId, obs::PropEdgeDefUse), nullptr);
  EXPECT_NE(findEdge(R, MulId, SubId, obs::PropEdgeDefUse), nullptr);
  EXPECT_NE(findEdge(R, SubId, StoreId, obs::PropEdgeDefUse), nullptr);
  EXPECT_NE(findEdge(R, StoreId, LoadId, obs::PropEdgeMemory), nullptr);
}

//===----------------------------------------------------------------------===//
// `.ipprop` round trip.
//===----------------------------------------------------------------------===//

obs::PropagationStore testutil::samplePropagationStore() {
  obs::PropagationStore S;
  S.ModuleName = "synthetic.mc";
  S.EntryFunction = "run";
  S.Label = "unit";
  S.Seed = 0xABCDu;
  S.SampleEvery = 4;
  S.TotalRuns = 64;
  S.CleanSteps = 123;
  S.CleanValueSteps = 77;
  S.Functions = {"run", "helper"};

  obs::PropInstr I0;
  I0.Id = 0;
  I0.Opcode = code(Opcode::Add);
  I0.StaticBenign = 1;
  I0.Predicted = 2;
  I0.Line = 3;
  I0.Col = 9;
  I0.FunctionIndex = 0;
  I0.StaticSinkMask = 0;
  obs::PropInstr I1;
  I1.Id = 1;
  I1.Opcode = code(Opcode::Store);
  I1.FunctionIndex = 1;
  I1.StaticSinkMask = obs::PropReachStore | obs::PropReachReturn;
  S.Instructions = {I0, I1};

  obs::PropRecord R0;
  R0.RunIndex = 8;
  R0.InstructionId = 0;
  R0.BitIndex = 17;
  R0.TargetValueStep = 42;
  R0.Outcome = code(Outcome::SOC);
  R0.ControlDiverged = 1;
  R0.DynReachMask = obs::PropReachStore | obs::PropReachControlFlow;
  R0.PropagationDepth = 6;
  R0.CorruptedValues = 19;
  R0.InjectionStep = 40;
  R0.FirstOutputStep = 55;
  R0.MaskedLogical = 2;
  R0.MaskedOverwrite = 1;
  R0.MaskedDead = 3;
  R0.Edges = {{0, 1, obs::PropEdgeDefUse, 5},
              {1, 0, obs::PropEdgeMemory, 2},
              {0, 0, obs::PropEdgeControl, 1}};
  R0.Masks = {{code(Opcode::ICmp), obs::PropMaskLogical, 2},
              {code(Opcode::Store), obs::PropMaskOverwrite, 1}};

  obs::PropRecord R1; // All-default record, FirstOutputStep sentinel.
  R1.RunIndex = 12;
  R1.InstructionId = 1;
  R1.Outcome = code(Outcome::Masked);
  S.Records = {R0, R1};
  return S;
}

TEST(PropagationStore, RoundTripPreservesEveryField) {
  obs::PropagationStore S = samplePropagationStore();
  std::string Bytes;
  obs::serializePropagationStore(S, Bytes);

  obs::PropagationStore P;
  std::string Err;
  ASSERT_TRUE(obs::parsePropagationStore(P, Bytes, &Err)) << Err;

  EXPECT_EQ(P.ModuleName, S.ModuleName);
  EXPECT_EQ(P.EntryFunction, S.EntryFunction);
  EXPECT_EQ(P.Label, S.Label);
  EXPECT_EQ(P.Seed, S.Seed);
  EXPECT_EQ(P.SampleEvery, S.SampleEvery);
  EXPECT_EQ(P.TotalRuns, S.TotalRuns);
  EXPECT_EQ(P.CleanSteps, S.CleanSteps);
  EXPECT_EQ(P.CleanValueSteps, S.CleanValueSteps);
  EXPECT_EQ(P.Functions, S.Functions);

  ASSERT_EQ(P.Instructions.size(), S.Instructions.size());
  for (size_t I = 0; I != S.Instructions.size(); ++I) {
    const obs::PropInstr &A = S.Instructions[I], &B = P.Instructions[I];
    EXPECT_EQ(B.Id, A.Id);
    EXPECT_EQ(B.Opcode, A.Opcode);
    EXPECT_EQ(B.StaticBenign, A.StaticBenign);
    EXPECT_EQ(B.Predicted, A.Predicted);
    EXPECT_EQ(B.Line, A.Line);
    EXPECT_EQ(B.Col, A.Col);
    EXPECT_EQ(B.FunctionIndex, A.FunctionIndex);
    EXPECT_EQ(B.StaticSinkMask, A.StaticSinkMask);
  }

  ASSERT_EQ(P.Records.size(), S.Records.size());
  for (size_t I = 0; I != S.Records.size(); ++I) {
    const obs::PropRecord &A = S.Records[I], &B = P.Records[I];
    EXPECT_EQ(B.RunIndex, A.RunIndex);
    EXPECT_EQ(B.InstructionId, A.InstructionId);
    EXPECT_EQ(B.BitIndex, A.BitIndex);
    EXPECT_EQ(B.TargetValueStep, A.TargetValueStep);
    EXPECT_EQ(B.Outcome, A.Outcome);
    EXPECT_EQ(B.ControlDiverged, A.ControlDiverged);
    EXPECT_EQ(B.DynReachMask, A.DynReachMask);
    EXPECT_EQ(B.PropagationDepth, A.PropagationDepth);
    EXPECT_EQ(B.CorruptedValues, A.CorruptedValues);
    EXPECT_EQ(B.InjectionStep, A.InjectionStep);
    EXPECT_EQ(B.FirstOutputStep, A.FirstOutputStep);
    EXPECT_EQ(B.MaskedLogical, A.MaskedLogical);
    EXPECT_EQ(B.MaskedOverwrite, A.MaskedOverwrite);
    EXPECT_EQ(B.MaskedDead, A.MaskedDead);
    ASSERT_EQ(B.Edges.size(), A.Edges.size());
    for (size_t E = 0; E != A.Edges.size(); ++E) {
      EXPECT_EQ(B.Edges[E].SrcId, A.Edges[E].SrcId);
      EXPECT_EQ(B.Edges[E].DstId, A.Edges[E].DstId);
      EXPECT_EQ(B.Edges[E].Kind, A.Edges[E].Kind);
      EXPECT_EQ(B.Edges[E].Count, A.Edges[E].Count);
    }
    ASSERT_EQ(B.Masks.size(), A.Masks.size());
    for (size_t K = 0; K != A.Masks.size(); ++K) {
      EXPECT_EQ(B.Masks[K].Opcode, A.Masks[K].Opcode);
      EXPECT_EQ(B.Masks[K].Kind, A.Masks[K].Kind);
      EXPECT_EQ(B.Masks[K].Count, A.Masks[K].Count);
    }
  }
  EXPECT_EQ(P.Records[1].FirstOutputStep, UINT64_MAX);
  EXPECT_FALSE(P.Records[1].reachedOutput());
}

//===----------------------------------------------------------------------===//
// Static-vs-dynamic soundness over generated programs.
//===----------------------------------------------------------------------===//

// SocPropagation's central claim: a provably-benign site reaches *no*
// sink, so no injection into one may ever be observed dynamically
// reaching a sink — let alone corrupting output. The tracer is the
// ground truth; any violation here is an analysis unsoundness bug, the
// same condition `ipas-prop --cross-validate` gates on.
TEST(Propagation, StaticallyBenignSitesNeverReachSinksDynamically) {
  for (uint64_t Seed : {11u, 23u, 37u, 58u, 71u, 94u}) {
    IPAS_SEED_TRACE(Seed);
    ipas::testing::GenConfig GC;
    GC.Seed = Seed;
    ipas::testing::GeneratedProgram GP = ipas::testing::generateProgram(GC);
    std::unique_ptr<Module> M = compile(GP.Source);
    ASSERT_TRUE(M) << GP.Source;
    SocPropagation Soc(*M);
    const std::vector<bool> &Benign = Soc.provablyBenign();

    ModuleLayout Layout(*M);
    FunctionHarness H(ipas::testing::GenEntryName,
                      {RtValue::fromI64(7), RtValue::fromI64(13)});
    CampaignConfig CC;
    CC.NumRuns = 48;
    CC.Seed = 0x5eed ^ Seed;
    CC.PropSampleEvery = 1; // Trace every injection.
    CC.TraceRuns = false;
    CampaignResult R = runCampaign(H, Layout, CC);
    EXPECT_EQ(R.TracedRuns, 48u);
    EXPECT_EQ(R.PropRecords.size(), R.TracedRuns);

    for (const obs::PropRecord &P : R.PropRecords) {
      if (P.InstructionId >= Benign.size() || !Benign[P.InstructionId])
        continue;
      EXPECT_NE(P.Outcome, code(Outcome::SOC))
          << "statically-benign instruction " << P.InstructionId
          << " silently corrupted output (run " << P.RunIndex << ")\n"
          << GP.Source;
      EXPECT_EQ(P.DynReachMask, 0u)
          << "statically-benign instruction " << P.InstructionId
          << " dynamically reached a sink (run " << P.RunIndex << ")\n"
          << GP.Source;
    }
  }
}

//===----------------------------------------------------------------------===//
// Sampled tracing must not perturb the campaign record stream.
//===----------------------------------------------------------------------===//

TEST(Propagation, RecordStreamInvariantAcrossThreadsAndTracing) {
  const std::string Src = "int g(int n) {\n"
                          "  int acc = 0;\n"
                          "  int i = 0;\n"
                          "  while (i < n) {\n"
                          "    acc = acc + i * 3;\n"
                          "    if (acc > 50) { acc = acc - 7; }\n"
                          "    i = i + 1;\n"
                          "  }\n"
                          "  return acc;\n"
                          "}\n";
  struct Variant {
    unsigned Threads;
    size_t Sample;
  };
  const Variant Variants[] = {{1, 0}, {4, 0}, {1, 8}, {4, 8}};

  using Stream = std::vector<std::tuple<unsigned, unsigned, Outcome>>;
  std::vector<Stream> Streams;
  for (const Variant &V : Variants) {
    std::unique_ptr<Module> M = compile(Src);
    ASSERT_TRUE(M);
    ModuleLayout Layout(*M);
    FunctionHarness H("g", {RtValue::fromI64(9)});
    CampaignConfig CC;
    CC.NumRuns = 96;
    CC.Seed = 0x1dea;
    CC.NumThreads = V.Threads;
    CC.PropSampleEvery = V.Sample;
    CC.TraceRuns = false;
    CampaignResult R = runCampaign(H, Layout, CC);
    ASSERT_EQ(R.Records.size(), 96u);

    // Runs 0, 8, ..., 88 are sampled; tracing off yields no records.
    EXPECT_EQ(R.TracedRuns, V.Sample ? 12u : 0u);
    EXPECT_EQ(R.PropRecords.size(), R.TracedRuns);
    for (const obs::PropRecord &P : R.PropRecords) {
      EXPECT_EQ(P.RunIndex % 8, 0u);
      // The traced re-execution reproduces the campaign run exactly.
      const InjectionRecord &IR = R.Records[P.RunIndex];
      EXPECT_EQ(P.InstructionId, IR.InstructionId);
      EXPECT_EQ(P.BitIndex, IR.BitIndex);
      EXPECT_EQ(P.Outcome, code(IR.Result));
    }

    Stream S;
    S.reserve(R.Records.size());
    for (const InjectionRecord &IR : R.Records)
      S.emplace_back(IR.InstructionId, IR.BitIndex, IR.Result);
    Streams.push_back(std::move(S));
  }
  for (size_t I = 1; I != Streams.size(); ++I)
    EXPECT_TRUE(Streams[0] == Streams[I])
        << "record stream diverged for variant " << I
        << " (threads=" << Variants[I].Threads
        << " sample=" << Variants[I].Sample << ")";
}
