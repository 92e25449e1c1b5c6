//===- tests/TestMl.cpp - SVM, cross validation, grid search ------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/ModelSelection.h"

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
  SvmModel Model = trainCSvc(D, P);
  EXPECT_LE(Model.iterationsUsed(), 10u);
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
