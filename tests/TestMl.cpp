//===- tests/TestMl.cpp - SVM, cross validation, grid search ------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "ml/ModelSelection.h"
#include "ml/SvmRows.h"
#include "obs/Metrics.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

using namespace ipas;

namespace {

/// Linearly separable blobs around (0,0) [-1] and (3,3) [+1].
Dataset makeBlobs(size_t PerClass, Rng &R, double Separation = 3.0) {
  Dataset D;
  for (size_t I = 0; I != PerClass; ++I) {
    D.add({R.nextDoubleIn(-0.8, 0.8), R.nextDoubleIn(-0.8, 0.8)}, -1);
    D.add({Separation + R.nextDoubleIn(-0.8, 0.8),
           Separation + R.nextDoubleIn(-0.8, 0.8)},
          1);
  }
  return D;
}

/// XOR pattern: not linearly separable; requires the RBF kernel.
Dataset makeXor(size_t PerQuadrant, Rng &R) {
  Dataset D;
  for (size_t I = 0; I != PerQuadrant; ++I) {
    double A = R.nextDoubleIn(0.2, 1.0);
    double B = R.nextDoubleIn(0.2, 1.0);
    D.add({A, B}, 1);
    D.add({-A, -B}, 1);
    D.add({-A, B}, -1);
    D.add({A, -B}, -1);
  }
  return D;
}

} // namespace

TEST(Scaler, MapsToUnitRangeAndHandlesConstants) {
  FeatureScaler S;
  S.fit({{0.0, 5.0, 7.0}, {10.0, 5.0, 3.0}, {5.0, 5.0, 5.0}});
  std::vector<double> T = S.transform({10.0, 5.0, 3.0});
  EXPECT_DOUBLE_EQ(T[0], 1.0);
  EXPECT_DOUBLE_EQ(T[1], 0.0); // constant feature maps to 0
  EXPECT_DOUBLE_EQ(T[2], 0.0);
  T = S.transform({0.0, 123.0, 7.0});
  EXPECT_DOUBLE_EQ(T[0], 0.0);
  EXPECT_DOUBLE_EQ(T[2], 1.0);
}

TEST(Svm, RbfKernelProperties) {
  std::vector<double> A{1.0, 2.0}, B{1.0, 2.0}, C{4.0, 6.0};
  EXPECT_DOUBLE_EQ(rbfKernel(A, B, 0.5), 1.0);
  EXPECT_LT(rbfKernel(A, C, 0.5), 1.0);
  EXPECT_GT(rbfKernel(A, C, 0.5), 0.0);
  // Larger gamma decays faster.
  EXPECT_GT(rbfKernel(A, C, 0.1), rbfKernel(A, C, 1.0));
}

TEST(Svm, SeparatesLinearBlobs) {
  Rng R(1);
  Dataset D = makeBlobs(40, R);
  SvmParams P;
  P.C = 10.0;
  P.Gamma = 0.5;
  SvmModel Model = trainCSvc(D, P);
  ClassAccuracies A = evaluateModel(Model, D);
  EXPECT_GT(A.Accuracy1, 0.99);
  EXPECT_GT(A.Accuracy2, 0.99);
  EXPECT_GT(Model.numSupportVectors(), 0u);
  EXPECT_LT(Model.numSupportVectors(), D.size());
}

TEST(Svm, SolvesXorWithRbf) {
  Rng R(2);
  Dataset D = makeXor(30, R);
  SvmParams P;
  P.C = 50.0;
  P.Gamma = 2.0;
  SvmModel Model = trainCSvc(D, P);
  ClassAccuracies A = evaluateModel(Model, D);
  EXPECT_GT(fScore(A), 0.95);
}

TEST(Svm, GeneralizesToHeldOutPoints) {
  Rng R(3);
  Dataset Train = makeBlobs(50, R);
  SvmParams P;
  P.C = 10.0;
  P.Gamma = 0.5;
  SvmModel Model = trainCSvc(Train, P);
  Dataset Test = makeBlobs(30, R);
  ClassAccuracies A = evaluateModel(Model, Test);
  EXPECT_GT(A.Accuracy1, 0.95);
  EXPECT_GT(A.Accuracy2, 0.95);
}

TEST(Svm, ClassWeightingHelpsImbalancedData) {
  // 6% positives, mimicking SOC training data (§4.3.1). Overlapping blobs
  // make the unweighted classifier collapse toward the majority class.
  Rng R(4);
  Dataset D;
  for (int I = 0; I != 470; ++I)
    D.add({R.nextDoubleIn(-1.5, 1.5), R.nextDoubleIn(-1.5, 1.5)}, -1);
  for (int I = 0; I != 30; ++I)
    D.add({1.2 + R.nextDoubleIn(-1.0, 1.0),
           1.2 + R.nextDoubleIn(-1.0, 1.0)},
          1);
  SvmParams Weighted;
  Weighted.C = 1.0;
  Weighted.Gamma = 0.5;
  Weighted.AutoClassWeight = true;
  SvmParams Unweighted = Weighted;
  Unweighted.AutoClassWeight = false;
  ClassAccuracies AW = evaluateModel(trainCSvc(D, Weighted), D);
  ClassAccuracies AU = evaluateModel(trainCSvc(D, Unweighted), D);
  EXPECT_GT(AW.Accuracy1, AU.Accuracy1);
  EXPECT_GT(fScore(AW), fScore(AU));
}

TEST(Svm, DeterministicTraining) {
  Rng R(5);
  Dataset D = makeBlobs(30, R);
  SvmParams P;
  SvmModel A = trainCSvc(D, P);
  SvmModel B = trainCSvc(D, P);
  EXPECT_EQ(A.numSupportVectors(), B.numSupportVectors());
  EXPECT_DOUBLE_EQ(A.bias(), B.bias());
  for (int I = 0; I != 10; ++I) {
    std::vector<double> X{R.nextDoubleIn(-1, 4), R.nextDoubleIn(-1, 4)};
    EXPECT_DOUBLE_EQ(A.decision(X), B.decision(X));
  }
}

TEST(Svm, MaxIterationsBoundsWork) {
  Rng R(6);
  Dataset D = makeXor(50, R);
  SvmParams P;
  P.C = 1e4;
  P.Gamma = 5.0;
  P.MaxIterations = 10;
  obs::Counter &Capped =
      obs::MetricsRegistry::global().counter("ml.svm.capped");
  uint64_t Before = Capped.value();
  SvmModel Model = trainCSvc(D, P);
  EXPECT_LE(Model.iterationsUsed(), 10u);
  EXPECT_EQ(Capped.value(), Before + 1);
  // A fit that converges before the cap leaves the counter alone.
  P.MaxIterations = 200000;
  EXPECT_LT(trainCSvc(D, P).iterationsUsed(), P.MaxIterations);
  EXPECT_EQ(Capped.value(), Before + 1);
}

TEST(Svm, VectorPassMatchesPortablePass) {
  if (svm::hostSmoIsa() != svm::SmoIsa::Avx2)
    GTEST_SKIP() << "this CPU has no AVX2, so only the portable pass runs";
  auto Bits = [](double X) { return std::bit_cast<uint64_t>(X); };
  auto Same = [&](const Dataset &D, const SvmParams &P) -> svm::RowFit {
    std::vector<size_t> Rows(D.size());
    for (size_t I = 0; I != Rows.size(); ++I)
      Rows[I] = I;
    svm::SquaredDistances D2(D);
    svm::RowFit A = svm::fitRows(D, &D2, Rows, P, svm::SmoIsa::Portable);
    svm::RowFit B = svm::fitRows(D, &D2, Rows, P, svm::SmoIsa::Avx2);
    EXPECT_GT(A.Iterations, 0u);
    EXPECT_EQ(A.Iterations, B.Iterations);
    EXPECT_EQ(A.Capped, B.Capped);
    EXPECT_EQ(Bits(A.Bias), Bits(B.Bias));
    EXPECT_EQ(Bits(A.Objective), Bits(B.Objective));
    EXPECT_EQ(A.SupportRows, B.SupportRows);
    EXPECT_EQ(A.Coefficients.size(), B.Coefficients.size());
    for (size_t K = 0; K < A.Coefficients.size() && K < B.Coefficients.size();
         ++K)
      EXPECT_EQ(Bits(A.Coefficients[K]), Bits(B.Coefficients[K])) << K;
    return A;
  };

  // Every length around the 4-lane padding, and the pipeline's sizes. A
  // third of the rows repeat an earlier row, so many V values tie and the
  // first-index tie-break decides the working set.
  Rng R(testutil::testSeed());
  IPAS_SEED_TRACE(testutil::testSeed());
  for (size_t N : {2, 3, 4, 5, 6, 7, 8, 9, 267, 400}) {
    SCOPED_TRACE(N);
    Dataset D;
    for (size_t I = 0; I != N; ++I) {
      int Label = I % 3 == 1 ? 1 : -1;
      if (I >= 3 && I % 3 == 0) {
        size_t From = static_cast<size_t>(R.nextBelow(I));
        D.add(D.X[From], D.Y[From]);
        continue;
      }
      D.add({R.nextDoubleIn(0, 1), R.nextDoubleIn(0, 1),
             R.nextDoubleIn(0, 1)},
            Label);
    }
    if (D.countLabel(1) == 0 || D.countLabel(-1) == 0)
      D.Y[0] = -D.Y[0];
    SvmParams P;
    P.C = 10.0;
    P.Gamma = 2.0;
    P.MaxIterations = 20000;
    Same(D, P);
    P.MaxIterations = 7; // stops mid-solve
    Same(D, P);
  }

  // Separable XOR at a large C: the support vectors are free (strictly
  // inside their box), so the bias averages over many of them.
  Dataset Xor = makeXor(60, R);
  SvmParams P;
  P.C = 1e4;
  P.Gamma = 30.0;
  svm::RowFit Fit = Same(Xor, P);
  size_t Free = 0;
  for (size_t K = 0; K != Fit.SupportRows.size(); ++K)
    Free += std::fabs(Fit.Coefficients[K]) < P.C;
  EXPECT_GE(Free, 8u) << "of " << Fit.SupportRows.size()
                      << " support vectors";
  EXPECT_GT(2 * Free, Fit.SupportRows.size());
}

TEST(FScore, MatchesPaperFormula) {
  ClassAccuracies A{0.8, 0.6};
  EXPECT_NEAR(fScore(A), 2.0 * 0.8 * 0.6 / 1.4, 1e-12);
  EXPECT_EQ(fScore({0.0, 0.0}), 0.0);
  EXPECT_EQ(fScore({1.0, 1.0}), 1.0);
  // Degenerate classifiers (all one class) score 0.
  EXPECT_EQ(fScore({1.0, 0.0}), 0.0);
}

TEST(CrossValidation, ReasonableOnSeparableData) {
  Rng R(7);
  Dataset D = makeBlobs(40, R);
  SvmParams P;
  P.C = 10.0;
  P.Gamma = 0.5;
  Rng FoldRng(1);
  ClassAccuracies A = crossValidate(D, P, 5, FoldRng);
  EXPECT_GT(fScore(A), 0.95);
}

TEST(CrossValidation, StratificationKeepsMinorityInEveryFold) {
  // With only 8 positives and 5 folds, unstratified splits could starve a
  // fold; stratified CV must still produce a usable score.
  Rng R(8);
  Dataset D;
  for (int I = 0; I != 192; ++I)
    D.add({R.nextDoubleIn(-1, 1), R.nextDoubleIn(-1, 1)}, -1);
  for (int I = 0; I != 8; ++I)
    D.add({4.0 + R.nextDoubleIn(-0.3, 0.3), 4.0}, 1);
  Rng FoldRng(2);
  ClassAccuracies A = crossValidate(D, SvmParams(), 4, FoldRng);
  EXPECT_GT(A.Accuracy1, 0.5);
  EXPECT_GT(A.Accuracy2, 0.9);
}

TEST(GridSearch, RanksByFScoreAndCoversGrid) {
  Rng R(9);
  Dataset D = makeXor(15, R);
  GridSearchConfig GC;
  GC.CSteps = 4;
  GC.GammaSteps = 3;
  GC.Folds = 3;
  GC.MaxIterations = 20000;
  std::vector<RankedConfig> All = gridSearch(D, GC);
  ASSERT_EQ(All.size(), 12u);
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_GE(All[I - 1].FScore, All[I].FScore);
  // The best configuration must actually solve XOR.
  EXPECT_GT(All.front().FScore, 0.9);
  // C and gamma stay within the requested ranges.
  for (const RankedConfig &RC : All) {
    EXPECT_GE(RC.Params.C, GC.CMin);
    EXPECT_LE(RC.Params.C, GC.CMax * 1.0001);
    EXPECT_GE(RC.Params.Gamma, GC.GammaMin);
    EXPECT_LE(RC.Params.Gamma, GC.GammaMax * 1.0001);
  }
}

TEST(GridSearch, ParallelRankingIsBitIdentical) {
  // XOR has many tied F-scores across the grid, so the ranking also
  // pins the stable sort's tie order, i.e. the serial scoring order.
  Rng R(17);
  Dataset D = makeXor(12, R);
  GridSearchConfig GC;
  GC.CSteps = 5;
  GC.GammaSteps = 4;
  GC.Folds = 3;
  GC.MaxIterations = 20000;
  std::vector<RankedConfig> Parallel = gridSearch(D, GC);
  ASSERT_EQ(Parallel.size(), 20u);

  // The serial reference: score the same grid gamma-major on this
  // thread, then rank with a stable sort.
  std::vector<double> Cs, Gammas;
  for (const RankedConfig &RC : Parallel) {
    Cs.push_back(RC.Params.C);
    Gammas.push_back(RC.Params.Gamma);
  }
  for (std::vector<double> *V : {&Cs, &Gammas}) {
    std::sort(V->begin(), V->end());
    V->erase(std::unique(V->begin(), V->end()), V->end());
  }
  ASSERT_EQ(Cs.size(), GC.CSteps);
  ASSERT_EQ(Gammas.size(), GC.GammaSteps);
  std::vector<RankedConfig> Serial;
  for (double Gamma : Gammas)
    for (double C : Cs) {
      RankedConfig RC;
      RC.Params.C = C;
      RC.Params.Gamma = Gamma;
      RC.Params.MaxIterations = GC.MaxIterations;
      Rng FoldRng(GC.Seed ^ 0x9e37);
      RC.Accuracies = crossValidate(D, RC.Params, GC.Folds, FoldRng);
      RC.FScore = fScore(RC.Accuracies);
      Serial.push_back(RC);
    }
  std::stable_sort(Serial.begin(), Serial.end(),
                   [](const RankedConfig &A, const RankedConfig &B) {
                     return A.FScore > B.FScore;
                   });
  ASSERT_EQ(Parallel.size(), Serial.size());
  auto Bits = [](double X) { return std::bit_cast<uint64_t>(X); };
  for (size_t I = 0; I != Serial.size(); ++I) {
    const RankedConfig &A = Serial[I], &B = Parallel[I];
    EXPECT_EQ(Bits(A.Params.C), Bits(B.Params.C)) << "rank " << I;
    EXPECT_EQ(Bits(A.Params.Gamma), Bits(B.Params.Gamma)) << "rank " << I;
    EXPECT_EQ(Bits(A.FScore), Bits(B.FScore)) << "rank " << I;
    EXPECT_EQ(Bits(A.Accuracies.Accuracy1), Bits(B.Accuracies.Accuracy1))
        << "rank " << I;
    EXPECT_EQ(Bits(A.Accuracies.Accuracy2), Bits(B.Accuracies.Accuracy2))
        << "rank " << I;
  }
  // Ties exist, so the comparison above covers the tie order too.
  size_t Ties = 0;
  for (size_t I = 1; I < Serial.size(); ++I)
    Ties += Serial[I - 1].FScore == Serial[I].FScore;
  EXPECT_GT(Ties, 0u);
}

TEST(GridSearch, PaperGridIs500Configurations) {
  GridSearchConfig GC; // defaults follow §4.3.2
  EXPECT_EQ(GC.CSteps * GC.GammaSteps, 500u);
  EXPECT_DOUBLE_EQ(GC.CMin, 1.0);
  EXPECT_DOUBLE_EQ(GC.CMax, 1e5);
  EXPECT_DOUBLE_EQ(GC.GammaMin, 1e-5);
  EXPECT_DOUBLE_EQ(GC.GammaMax, 1.0);
}

namespace {

/// FNV-1a over the bit patterns of doubles and counts.
class BitDigest {
public:
  BitDigest &u64(uint64_t V) {
    for (unsigned B = 0; B != 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
    return *this;
  }
  BitDigest &f64(double V) { return u64(std::bit_cast<uint64_t>(V)); }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

uint64_t modelDigest(const SvmModel &M) {
  BitDigest D;
  D.f64(M.bias()).f64(M.objective()).u64(M.iterationsUsed());
  D.u64(M.coefficients().size());
  for (double C : M.coefficients())
    D.f64(C);
  return D.value();
}

} // namespace

TEST(Svm, PinnedBitsOnIsDefaultScale) {
  // The IS IPAS dataset at PipelineConfig::defaults() (400 samples, 31
  // features), ranked over the default 8 x 8 x 3 grid as the pipeline
  // does, then fitted on the full set at the top two configurations and
  // at the grid corner (C = 1e5, gamma = 1), which stops at the cap.
  // The digests were taken from the scalar solver this fast path
  // replaced; any change to an output bit of the SVM layer moves them.
  PipelineConfig Cfg = PipelineConfig::defaults();
  auto W = makeWorkload("IS");
  TrainingArtifacts A = IpasPipeline(*W, Cfg).collectAndTrain(false);
  ASSERT_EQ(A.IpasData.size(), 400u);

  GridSearchConfig GC = Cfg.Grid;
  GC.Seed = Cfg.Seed ^ 0x62d5;
  std::vector<RankedConfig> Ranked = gridSearch(A.IpasData, GC);
  ASSERT_EQ(Ranked.size(), 64u);
  BitDigest RD;
  for (const RankedConfig &RC : Ranked)
    RD.f64(RC.Params.C)
        .f64(RC.Params.Gamma)
        .f64(RC.FScore)
        .f64(RC.Accuracies.Accuracy1)
        .f64(RC.Accuracies.Accuracy2);
  EXPECT_EQ(RD.value(), 0x185a9605469b4cd0ull) << std::hex << RD.value();

  SvmParams Corner;
  Corner.C = GC.CMax;
  Corner.Gamma = GC.GammaMax;
  Corner.MaxIterations = GC.MaxIterations;
  const uint64_t Expected[] = {0x7f054e9efa973b31ull, 0x4c079ec9907df2e6ull,
                               0xa142a6d7e2c32e65ull};
  const SvmParams Fits[] = {Ranked[0].Params, Ranked[1].Params, Corner};
  for (unsigned K = 0; K != 3; ++K) {
    SvmModel M = trainCSvc(A.IpasData, Fits[K]);
    EXPECT_EQ(modelDigest(M), Expected[K])
        << "fit " << K << ": " << std::hex << modelDigest(M) << std::dec
        << " (" << M.iterationsUsed() << " iterations)";
  }
  EXPECT_EQ(trainCSvc(A.IpasData, Corner).iterationsUsed(),
            GC.MaxIterations);
}
