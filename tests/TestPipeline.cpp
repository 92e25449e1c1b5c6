//===- tests/TestPipeline.cpp - End-to-end IPAS workflow ----------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "obs/RecordStore.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <bit>

using namespace ipas;

namespace {

/// Small-but-meaningful configuration shared by the pipeline tests: IS is
/// the cheapest workload, and these sizes keep each test in seconds.
PipelineConfig tinyConfig() {
  PipelineConfig Cfg = PipelineConfig::defaults();
  Cfg.TrainSamples = 150;
  Cfg.EvalRuns = 120;
  Cfg.Grid.CSteps = 3;
  Cfg.Grid.GammaSteps = 3;
  Cfg.Grid.Folds = 3;
  Cfg.TopN = 2;
  Cfg.Seed = 0xBEEF;
  return Cfg;
}

/// The full evaluation is expensive; compute it once for the suite. It
/// also writes per-variant .iprec record stores into the temp dir so
/// RecordDirWritesInspectableStores can audit them without a second run.
const WorkloadEvaluation &isEvaluation() {
  static WorkloadEvaluation WE = [] {
    auto W = makeWorkload("IS");
    PipelineConfig Cfg = tinyConfig();
    Cfg.RecordDir = ::testing::TempDir();
    IpasPipeline P(*W, Cfg);
    return P.run();
  }();
  return WE;
}

} // namespace

TEST(Pipeline, TrainingProducesBothLabelings) {
  auto W = makeWorkload("IS");
  PipelineConfig Cfg = tinyConfig();
  IpasPipeline P(*W, Cfg);
  TrainingArtifacts A = P.collectAndTrain();
  EXPECT_EQ(A.Campaign.Records.size(), Cfg.TrainSamples);
  EXPECT_EQ(A.IpasData.size(), Cfg.TrainSamples);
  EXPECT_EQ(A.BaselineData.size(), Cfg.TrainSamples);
  // SOC-generating samples are the minority class (class imbalance,
  // §4.3.1) yet must be present to train at all.
  size_t Soc = A.IpasData.countLabel(1);
  EXPECT_GT(Soc, 0u);
  EXPECT_LT(Soc, Cfg.TrainSamples / 2);
  EXPECT_GT(A.BaselineData.countLabel(1), 0u);
  ASSERT_FALSE(A.IpasConfigs.empty());
  EXPECT_LE(A.IpasConfigs.size(), static_cast<size_t>(Cfg.TopN));
  EXPECT_GT(A.IpasConfigs.front().FScore, 0.0);
  EXPECT_GT(A.TrainSeconds, 0.0);
  // Features cover every instruction of the module.
  EXPECT_EQ(A.Features.size(),
            compileWorkload(*W)->numInstructions());
}

TEST(Pipeline, SelectInstructionsDiffersByTechnique) {
  auto W = makeWorkload("IS");
  IpasPipeline P(*W, tinyConfig());
  TrainingArtifacts A = P.collectAndTrain();
  auto IpasIds = P.selectInstructions(Technique::Ipas,
                                      A.IpasConfigs.front().Params, A);
  auto BaseIds = P.selectInstructions(Technique::Baseline,
                                      A.BaselineConfigs.front().Params, A);
  EXPECT_GT(IpasIds.size(), 0u);
  EXPECT_GT(BaseIds.size(), 0u);
  // The shoestring-style baseline overprotects relative to IPAS — the
  // paper's central claim (Figure 7).
  EXPECT_GT(BaseIds.size(), IpasIds.size());
}

TEST(Pipeline, ParallelTopNFitsMatchSerialFits) {
  auto W = makeWorkload("IS");
  IpasPipeline P(*W, tinyConfig());
  TrainingArtifacts A = P.collectAndTrain();
  ASSERT_EQ(A.IpasConfigs.size(), 2u);
  ASSERT_EQ(A.BaselineConfigs.size(), 2u);
  std::vector<IpasPipeline::Selection> Parallel = P.selectTopN(A);
  ASSERT_EQ(Parallel.size(), 4u);
  for (size_t K = 0; K != Parallel.size(); ++K) {
    bool Ipas = K < A.IpasConfigs.size();
    const RankedConfig &RC = Ipas ? A.IpasConfigs[K]
                                  : A.BaselineConfigs[K - A.IpasConfigs.size()];
    EXPECT_EQ(Parallel[K].Ids,
              P.selectInstructions(Ipas ? Technique::Ipas
                                        : Technique::Baseline,
                                   RC.Params, A))
        << "fit " << K;
    EXPECT_GT(Parallel[K].Seconds, 0.0) << "fit " << K;
  }
}

TEST(Pipeline, FullEvaluationShapesMatchPaper) {
  const WorkloadEvaluation &WE = isEvaluation();
  ASSERT_GE(WE.Variants.size(), 4u);

  const VariantEvaluation *Unprot = WE.variant("unprotected");
  const VariantEvaluation *Full = WE.variant("full");
  ASSERT_TRUE(Unprot && Full);

  // Unprotected: no checks, slowdown 1, some SOC.
  EXPECT_EQ(Unprot->Dup.DuplicatedInstructions, 0u);
  EXPECT_DOUBLE_EQ(Unprot->Slowdown, 1.0);
  double UnprotSoc = Unprot->Campaign.fraction(Outcome::SOC);
  EXPECT_GT(UnprotSoc, 0.0);
  EXPECT_EQ(Unprot->Campaign.count(Outcome::Detected), 0u);

  // Full duplication: detects faults, reduces SOC, costs the most.
  EXPECT_GT(Full->Campaign.count(Outcome::Detected), 0u);
  EXPECT_LT(Full->Campaign.fraction(Outcome::SOC), UnprotSoc);
  EXPECT_GT(Full->Slowdown, 1.2);

  for (const VariantEvaluation &V : WE.Variants) {
    if (V.Tech != Technique::Ipas && V.Tech != Technique::Baseline)
      continue;
    // Every classifier-guided variant must cost less than full
    // duplication and reduce SOC meaningfully.
    EXPECT_LT(V.Slowdown, Full->Slowdown) << V.Label;
    EXPECT_GT(V.SocReductionPct, 20.0) << V.Label;
    EXPECT_GT(V.Campaign.count(Outcome::Detected), 0u) << V.Label;
    EXPECT_LT(V.Dup.DuplicatedInstructions,
              Full->Dup.DuplicatedInstructions)
        << V.Label;
  }
}

// The evaluation's RecordDir must hold one parseable .iprec per variant
// whose outcome totals equal the variant's campaign counts, with
// classifier columns populated for the classifier-guided variants.
TEST(Pipeline, RecordDirWritesInspectableStores) {
  const WorkloadEvaluation &WE = isEvaluation();
  for (const VariantEvaluation &V : WE.Variants) {
    std::string Path =
        ::testing::TempDir() + "IS-" + V.Label + ".iprec";
    obs::RecordStore S;
    std::string Err;
    ASSERT_TRUE(obs::readRecordStore(S, Path, &Err)) << Path << ": " << Err;
    EXPECT_EQ(S.Label, V.Label);
    EXPECT_EQ(S.Rows.size(), V.Campaign.Records.size()) << V.Label;
    ASSERT_EQ(S.OutcomeTotals.size(), static_cast<size_t>(NumOutcomes));
    for (unsigned O = 0; O != NumOutcomes; ++O)
      EXPECT_EQ(S.OutcomeTotals[O], V.Campaign.Counts[O])
          << V.Label << " outcome " << O;
    EXPECT_FALSE(S.SourceText.empty());

    bool AnyPrediction = false, AnyLoc = false;
    for (const obs::InstrRecord &I : S.Instructions) {
      AnyPrediction |= I.Predicted != obs::PredictNone;
      AnyLoc |= I.Line > 0;
    }
    EXPECT_TRUE(AnyLoc) << V.Label;
    bool Classifier =
        V.Tech == Technique::Ipas || V.Tech == Technique::Baseline;
    EXPECT_EQ(AnyPrediction, Classifier) << V.Label;
  }
}

TEST(Pipeline, BestVariantUsesIdealPointCriterion) {
  const WorkloadEvaluation &WE = isEvaluation();
  const VariantEvaluation *Best = WE.bestVariant(Technique::Ipas);
  ASSERT_TRUE(Best);
  double BestDist =
      euclideanDistance(Best->Slowdown, Best->SocReductionPct, 1.0, 100.0);
  for (const VariantEvaluation &V : WE.Variants) {
    if (V.Tech == Technique::Ipas) {
      EXPECT_LE(BestDist, euclideanDistance(V.Slowdown, V.SocReductionPct,
                                            1.0, 100.0) +
                              1e-12);
    }
  }
}

TEST(Pipeline, ScalabilitySlowdownStaysBounded) {
  auto W = makeWorkload("IS");
  IpasPipeline P(*W, tinyConfig());
  auto PM = P.protectAll();
  double S1 = P.scalabilitySlowdown(PM, 1);
  double S4 = P.scalabilitySlowdown(PM, 4);
  EXPECT_GT(S1, 1.0);
  EXPECT_GT(S4, 1.0);
  // Duplication instruments computation only (§6.4): scaling up must not
  // inflate the slowdown.
  EXPECT_LT(S4, S1 * 1.25);
}

TEST(Pipeline, TechniqueNames) {
  EXPECT_STREQ(techniqueName(Technique::Unprotected), "unprotected");
  EXPECT_STREQ(techniqueName(Technique::FullDup), "full-duplication");
  EXPECT_STREQ(techniqueName(Technique::Ipas), "ipas");
  EXPECT_STREQ(techniqueName(Technique::Baseline), "baseline");
}

//===----------------------------------------------------------------------===//
// Defaults: the VM on every core, exact against the reference
//===----------------------------------------------------------------------===//

namespace {

void expectSameStream(const CampaignResult &A, const CampaignResult &B,
                      const std::string &What) {
  ASSERT_EQ(A.Records.size(), B.Records.size()) << What;
  for (size_t I = 0; I != A.Records.size(); ++I) {
    const InjectionRecord &X = A.Records[I], &Y = B.Records[I];
    EXPECT_EQ(X.InstructionId, Y.InstructionId) << What << " row " << I;
    EXPECT_EQ(X.BitIndex, Y.BitIndex) << What << " row " << I;
    EXPECT_EQ(X.TargetValueStep, Y.TargetValueStep) << What << " row " << I;
    EXPECT_EQ(X.Result, Y.Result) << What << " row " << I;
  }
  EXPECT_EQ(A.Counts, B.Counts) << What;
  EXPECT_EQ(A.CleanSteps, B.CleanSteps) << What;
}

void expectSameRanking(const std::vector<RankedConfig> &A,
                       const std::vector<RankedConfig> &B,
                       const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  auto Bits = [](double X) { return std::bit_cast<uint64_t>(X); };
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(Bits(A[I].Params.C), Bits(B[I].Params.C)) << What << I;
    EXPECT_EQ(Bits(A[I].Params.Gamma), Bits(B[I].Params.Gamma)) << What << I;
    EXPECT_EQ(Bits(A[I].FScore), Bits(B[I].FScore)) << What << I;
    EXPECT_EQ(Bits(A[I].Accuracies.Accuracy1),
              Bits(B[I].Accuracies.Accuracy1))
        << What << I;
    EXPECT_EQ(Bits(A[I].Accuracies.Accuracy2),
              Bits(B[I].Accuracies.Accuracy2))
        << What << I;
  }
}

/// Every campaign of \p WE ran on the VM, none on the interpreter.
void expectAllOnVm(const WorkloadEvaluation &WE) {
  auto Check = [](const CampaignResult &C, const std::string &What) {
    EXPECT_EQ(C.VmRuns, C.Records.size() - C.PrunedRuns) << What;
    EXPECT_EQ(C.InterpRuns, 0u) << What;
  };
  Check(WE.Training.Campaign, "training");
  for (const VariantEvaluation &V : WE.Variants)
    Check(V.Campaign, V.Label);
}

} // namespace

TEST(Pipeline, DefaultsMatchInterpreterReference) {
  PipelineConfig Defaults;
  EXPECT_EQ(Defaults.Backend, ExecBackend::Vm);
  EXPECT_EQ(Defaults.NumThreads, hardwareThreads());

  for (const char *Name : {"IS", "FFT"}) {
    SCOPED_TRACE(Name);
    auto W = makeWorkload(Name);
    // e2ebench's tiny scale.
    PipelineConfig Fast = PipelineConfig::defaults();
    Fast.TrainSamples = 60;
    Fast.EvalRuns = 24;
    Fast.Grid.CSteps = 2;
    Fast.Grid.GammaSteps = 2;
    Fast.Grid.Folds = 2;
    Fast.TopN = 2;
    PipelineConfig Ref = Fast;
    Ref.Backend = ExecBackend::Interp;
    Ref.NumThreads = 1;

    WorkloadEvaluation A = IpasPipeline(*W, Fast).run();
    WorkloadEvaluation B = IpasPipeline(*W, Ref).run();

    expectAllOnVm(A);
    expectSameStream(A.Training.Campaign, B.Training.Campaign, "training");
    expectSameRanking(A.Training.IpasConfigs, B.Training.IpasConfigs,
                      "ipas rank ");
    expectSameRanking(A.Training.BaselineConfigs,
                      B.Training.BaselineConfigs, "baseline rank ");
    ASSERT_EQ(A.Variants.size(), B.Variants.size());
    for (size_t I = 0; I != A.Variants.size(); ++I) {
      const VariantEvaluation &X = A.Variants[I], &Y = B.Variants[I];
      ASSERT_EQ(X.Label, Y.Label);
      expectSameStream(X.Campaign, Y.Campaign, X.Label);
      EXPECT_EQ(X.Dup.TotalInstructions, Y.Dup.TotalInstructions);
      EXPECT_EQ(X.Dup.EligibleInstructions, Y.Dup.EligibleInstructions);
      EXPECT_EQ(X.Dup.SelectedInstructions, Y.Dup.SelectedInstructions);
      EXPECT_EQ(X.Dup.DuplicatedInstructions, Y.Dup.DuplicatedInstructions);
      EXPECT_EQ(X.Dup.ChecksInserted, Y.Dup.ChecksInserted);
      EXPECT_EQ(std::bit_cast<uint64_t>(X.Slowdown),
                std::bit_cast<uint64_t>(Y.Slowdown))
          << X.Label;
      EXPECT_EQ(std::bit_cast<uint64_t>(X.SocReductionPct),
                std::bit_cast<uint64_t>(Y.SocReductionPct))
          << X.Label;
    }
  }
}
