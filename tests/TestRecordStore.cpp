//===- tests/TestRecordStore.cpp - .iprec provenance store tests ----------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The record store is the campaign's archival format, so the tests pin
/// down the properties an archival format must have: serialize->parse->
/// serialize is byte-identical (including NaN feature payloads), corrupt
/// counts are rejected rather than allocated (the envelope corruption
/// classes are in TestStoreEnvelope.cpp), and the store built from a
/// campaign is deterministic across worker-thread counts (the documented
/// exception: per-run latency, which is wall time and is zeroed before
/// comparing).
///
//===----------------------------------------------------------------------===//

#include "StoreSamples.h"
#include "TestUtil.h"

#include "fault/FunctionHarness.h"
#include "fault/RecordBuild.h"
#include "obs/RecordStore.h"
#include "transform/Duplication.h"

#include <cmath>
#include <limits>

using namespace ipas;
using namespace ipas::testutil;
using obs::InjectionRow;
using obs::InstrRecord;
using obs::RecordStore;

/// A store exercising every field: strings with escapes, NaN and
/// denormal doubles, 64-bit counters, multiple functions.
RecordStore testutil::sampleRecordStore() {
  RecordStore S;
  S.ModuleName = "sample \"quoted\" \n module";
  S.EntryFunction = "run";
  S.Label = "unit";
  S.Seed = 0xdeadbeefcafef00dull;
  S.CleanSteps = UINT64_MAX - 3;
  S.CleanValueSteps = 123456789;
  S.PrunedRuns = 7;
  S.PrunedSites = 3;
  S.SourceText = "int f() {\n  return 1;\n}\n";
  S.Functions = {"f", "helper"};

  InstrRecord A;
  A.Id = 0;
  A.Opcode = 4;
  A.DupRole = 1;
  A.Predicted = obs::PredictProtect;
  A.Protected_ = 1;
  A.Line = 2;
  A.Col = 10;
  A.FunctionIndex = 0;
  A.DynExecCount = 1ull << 40;
  A.Score = -1.25;
  InstrRecord B;
  B.Id = 1;
  B.Opcode = 20;
  B.FunctionIndex = 1;
  B.Score = std::numeric_limits<double>::quiet_NaN();
  S.Instructions = {A, B};

  S.NumFeatures = 3;
  S.Features = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::denorm_min(), 1e308, -42.5};

  InjectionRow R1;
  R1.InstructionId = 0;
  R1.BitIndex = 63;
  R1.TargetValueStep = 999;
  R1.Outcome = 4; // SOC
  R1.LatencyUs = 120;
  InjectionRow R2;
  R2.InstructionId = 1;
  R2.BitIndex = 0;
  R2.TargetValueStep = 0;
  R2.Outcome = 2; // Detected
  S.Rows = {R1, R2};
  S.tallyOutcomes();
  return S;
}

namespace {

TEST(RecordStore, RoundTripIsByteIdentical) {
  RecordStore S = sampleRecordStore();
  std::string Bytes;
  obs::serializeRecordStore(S, Bytes);

  RecordStore Parsed;
  std::string Err;
  ASSERT_TRUE(obs::parseRecordStore(Parsed, Bytes, &Err)) << Err;

  // Field-level round trip, including the bit pattern of the NaN score.
  EXPECT_EQ(Parsed.ModuleName, S.ModuleName);
  EXPECT_EQ(Parsed.Seed, S.Seed);
  EXPECT_EQ(Parsed.CleanSteps, S.CleanSteps);
  EXPECT_EQ(Parsed.SourceText, S.SourceText);
  EXPECT_EQ(Parsed.Functions, S.Functions);
  ASSERT_EQ(Parsed.Instructions.size(), 2u);
  EXPECT_EQ(Parsed.Instructions[0].DynExecCount, 1ull << 40);
  EXPECT_TRUE(std::isnan(Parsed.Instructions[1].Score));
  ASSERT_EQ(Parsed.Rows.size(), 2u);
  EXPECT_EQ(Parsed.Rows[0].LatencyUs, 120u);
  EXPECT_EQ(Parsed.OutcomeTotals, S.OutcomeTotals);

  // And the strong form: re-serializing reproduces the exact bytes.
  std::string Bytes2;
  obs::serializeRecordStore(Parsed, Bytes2);
  EXPECT_EQ(Bytes, Bytes2);
}

TEST(RecordStore, RejectsAbsurdElementCounts) {
  // A corrupt count field must be caught by the remaining-bytes guard,
  // not turned into a multi-gigabyte allocation. Patch the instruction
  // count (first u64 after the variable-length metadata) by corrupting
  // the payload wholesale: any huge count implies fewer bytes than
  // needed, so every such mutation must fail cleanly.
  std::string Bytes;
  obs::serializeRecordStore(sampleRecordStore(), Bytes);
  RecordStore S;
  std::string Err;
  for (size_t Pos = 20; Pos + 8 < Bytes.size(); Pos += 16) {
    std::string Bad = Bytes;
    for (int K = 0; K != 8; ++K)
      Bad[Pos + static_cast<size_t>(K)] = static_cast<char>(0xff);
    EXPECT_FALSE(obs::parseRecordStore(S, Bad, &Err)) << "at " << Pos;
  }
}

//===----------------------------------------------------------------------===//
// Campaign determinism
//===----------------------------------------------------------------------===//

const char *const RecSrc = R"(
double f(int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    acc = acc + 0.5 * i;
  }
  return acc;
}
)";

RecordStore campaignStore(const Module &M, unsigned Threads) {
  ModuleLayout Layout(M);
  FunctionHarness Harness("f", {RtValue::fromI64(24)});
  CampaignConfig CC;
  CC.NumRuns = 120;
  CC.Seed = testSeed();
  CC.NumThreads = Threads;
  CampaignResult R = runCampaign(Harness, Layout, CC);

  std::vector<unsigned> Trace = Harness.traceValueSteps(Layout);
  RecordBuildInputs In;
  In.M = &M;
  In.Result = &R;
  In.EntryFunction = "f";
  In.Label = "unit";
  In.Seed = CC.Seed;
  In.SourceText = RecSrc;
  In.ValueStepTrace = &Trace;
  return buildRecordStore(In);
}

TEST(RecordStore, CampaignStoreDeterministicAcrossThreadCounts) {
  IPAS_SEED_TRACE(testSeed());
  auto M = compile(RecSrc);
  ASSERT_TRUE(M);
  duplicateAllInstructions(*M);
  M->renumber();

  RecordStore S1 = campaignStore(*M, 1);
  RecordStore S4 = campaignStore(*M, 4);
  ASSERT_EQ(S1.Rows.size(), 120u);

  // Latency is wall time — the one documented nondeterministic column.
  for (InjectionRow &R : S1.Rows)
    R.LatencyUs = 0;
  for (InjectionRow &R : S4.Rows)
    R.LatencyUs = 0;

  std::string B1, B4;
  obs::serializeRecordStore(S1, B1);
  obs::serializeRecordStore(S4, B4);
  EXPECT_EQ(B1, B4);

  // The heatmap contract ipas-inspect relies on: summing outcomes over
  // rows reproduces the campaign's outcome totals exactly.
  std::vector<uint64_t> FromRows(NumOutcomes, 0);
  for (const InjectionRow &R : S1.Rows) {
    ASSERT_LT(R.Outcome, NumOutcomes);
    ++FromRows[R.Outcome];
  }
  ASSERT_EQ(S1.OutcomeTotals.size(), static_cast<size_t>(NumOutcomes));
  for (unsigned O = 0; O != NumOutcomes; ++O)
    EXPECT_EQ(S1.OutcomeTotals[O], FromRows[O]) << "outcome " << O;

  // Every instruction the campaign targeted has a side-table entry with
  // a valid source location (the MiniC frontend stamps every
  // instruction, and duplication inherits locations).
  ASSERT_EQ(S1.Instructions.size(), M->numInstructions());
  for (const InstrRecord &I : S1.Instructions)
    EXPECT_GT(I.Line, 0u) << "instruction " << I.Id << " has no line";
}

} // namespace
