//===- ml/ModelSelection.cpp --------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/ModelSelection.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cmath>

using namespace ipas;

double ipas::fScore(const ClassAccuracies &A) {
  double Sum = A.Accuracy1 + A.Accuracy2;
  if (Sum <= 0.0)
    return 0.0;
  return 2.0 * A.Accuracy1 * A.Accuracy2 / Sum;
}

ClassAccuracies ipas::evaluateModel(const SvmModel &Model,
                                    const Dataset &Test) {
  size_t Correct1 = 0, Total1 = 0, Correct2 = 0, Total2 = 0;
  for (size_t I = 0; I != Test.size(); ++I) {
    int Pred = Model.predict(Test.X[I]);
    if (Test.Y[I] > 0) {
      ++Total1;
      if (Pred > 0)
        ++Correct1;
    } else {
      ++Total2;
      if (Pred < 0)
        ++Correct2;
    }
  }
  ClassAccuracies A;
  A.Accuracy1 = Total1 ? static_cast<double>(Correct1) /
                             static_cast<double>(Total1)
                       : 0.0;
  A.Accuracy2 = Total2 ? static_cast<double>(Correct2) /
                             static_cast<double>(Total2)
                       : 0.0;
  return A;
}

/// Builds stratified fold assignments: each class's samples are shuffled
/// and dealt round-robin so every fold sees the minority class.
static std::vector<unsigned> stratifiedFolds(const Dataset &D,
                                             unsigned Folds, Rng &R) {
  std::vector<size_t> Pos, Neg;
  for (size_t I = 0; I != D.size(); ++I)
    (D.Y[I] > 0 ? Pos : Neg).push_back(I);
  auto ShuffleIdx = [&](std::vector<size_t> &V) {
    R.shuffle(V.size(), [&](size_t A, size_t B) { std::swap(V[A], V[B]); });
  };
  ShuffleIdx(Pos);
  ShuffleIdx(Neg);
  std::vector<unsigned> FoldOf(D.size(), 0);
  unsigned Next = 0;
  for (size_t I : Pos)
    FoldOf[I] = Next++ % Folds;
  for (size_t I : Neg)
    FoldOf[I] = Next++ % Folds;
  return FoldOf;
}

ClassAccuracies ipas::crossValidate(const Dataset &D, const SvmParams &P,
                                    unsigned Folds, Rng &R) {
  assert(Folds >= 2 && "cross validation needs at least two folds");
  std::vector<unsigned> FoldOf = stratifiedFolds(D, Folds, R);

  size_t Correct1 = 0, Total1 = 0, Correct2 = 0, Total2 = 0;
  for (unsigned Fold = 0; Fold != Folds; ++Fold) {
    Dataset Train, Test;
    for (size_t I = 0; I != D.size(); ++I) {
      if (FoldOf[I] == Fold)
        Test.add(D.X[I], D.Y[I]);
      else
        Train.add(D.X[I], D.Y[I]);
    }
    if (Train.countLabel(1) == 0 || Train.countLabel(-1) == 0 ||
        Test.size() == 0)
      continue; // degenerate fold (tiny minority class)
    SvmModel Model = trainCSvc(Train, P);
    for (size_t I = 0; I != Test.size(); ++I) {
      int Pred = Model.predict(Test.X[I]);
      if (Test.Y[I] > 0) {
        ++Total1;
        if (Pred > 0)
          ++Correct1;
      } else {
        ++Total2;
        if (Pred < 0)
          ++Correct2;
      }
    }
  }
  ClassAccuracies A;
  A.Accuracy1 =
      Total1 ? static_cast<double>(Correct1) / static_cast<double>(Total1)
             : 0.0;
  A.Accuracy2 =
      Total2 ? static_cast<double>(Correct2) / static_cast<double>(Total2)
             : 0.0;
  return A;
}

/// Log-spaced values from Lo to Hi inclusive.
static std::vector<double> logSpace(double Lo, double Hi, unsigned Steps) {
  std::vector<double> V;
  if (Steps == 1) {
    V.push_back(Lo);
    return V;
  }
  double LogLo = std::log10(Lo);
  double LogHi = std::log10(Hi);
  for (unsigned I = 0; I != Steps; ++I)
    V.push_back(std::pow(
        10.0, LogLo + (LogHi - LogLo) * static_cast<double>(I) /
                          static_cast<double>(Steps - 1)));
  return V;
}

std::vector<RankedConfig> ipas::gridSearch(const Dataset &D,
                                           const GridSearchConfig &Cfg) {
  std::vector<double> Cs = logSpace(Cfg.CMin, Cfg.CMax, Cfg.CSteps);
  std::vector<double> Gammas =
      logSpace(Cfg.GammaMin, Cfg.GammaMax, Cfg.GammaSteps);

  obs::PhaseSpan Span(
      "grid_search",
      obs::AttrSet()
          .add("configs", static_cast<uint64_t>(Cs.size() * Gammas.size()))
          .add("folds", Cfg.Folds)
          .add("samples", static_cast<uint64_t>(D.size())));
  obs::MetricsRegistry::global()
      .counter("ml.grid.configs")
      .inc(Cs.size() * Gammas.size());

  // The configurations are cross-validated concurrently on every core
  // (support/Parallel.h), each into its own slot (gamma-major, the serial
  // order), with the same fold split for every configuration so scores
  // are comparable; the stable sort then ranks them exactly as a serial
  // loop would, so the ranking does not depend on the thread count.
  std::vector<RankedConfig> Results(Cs.size() * Gammas.size());
  parallelFor(Results.size(), hardwareThreads(), [&](size_t K) {
    RankedConfig &RC = Results[K];
    RC.Params.C = Cs[K % Cs.size()];
    RC.Params.Gamma = Gammas[K / Cs.size()];
    RC.Params.MaxIterations = Cfg.MaxIterations;
    Rng FoldRng(Cfg.Seed ^ 0x9e37);
    RC.Accuracies = crossValidate(D, RC.Params, Cfg.Folds, FoldRng);
    RC.FScore = fScore(RC.Accuracies);
  });
  std::stable_sort(Results.begin(), Results.end(),
                   [](const RankedConfig &A, const RankedConfig &B) {
                     return A.FScore > B.FScore;
                   });
  if (!Results.empty())
    Span.addAttr(obs::AttrSet()
                     .add("best_fscore", Results.front().FScore)
                     .add("best_c", Results.front().Params.C)
                     .add("best_gamma", Results.front().Params.Gamma));
  return Results;
}
