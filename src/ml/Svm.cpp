//===- ml/Svm.cpp --------------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// SMO in the Fan–Chen–Lin style used by LIBSVM: at each iteration the
/// maximal violating pair (i from I_up, j from I_low) is selected by
/// first-order information, the two alphas are updated analytically under
/// the box constraints, and the gradient is maintained incrementally.
///
/// The gradient update and the next iteration's pair selection run as one
/// pass over 4-wide vector lanes (DESIGN.md, "src/ml"). The pass keeps the
/// scalar arithmetic and the first-index tie-break of a serial scan, so
/// every output bit is the one a serial solver produces.
///
//===----------------------------------------------------------------------===//

#include "ml/SvmRows.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

using namespace ipas;
using namespace ipas::svm;

/// ||A - B||^2, summed over the features in index order. Every kernel
/// value comes from this one loop, so all of them agree bit for bit.
static double squaredDistance(const std::vector<double> &A,
                              const std::vector<double> &B) {
  double Dist2 = 0.0;
  for (size_t J = 0; J != A.size(); ++J) {
    double D = A[J] - B[J];
    Dist2 += D * D;
  }
  return Dist2;
}

double ipas::rbfKernel(const std::vector<double> &A,
                       const std::vector<double> &B, double Gamma) {
  return std::exp(-Gamma * squaredDistance(A, B));
}

double SvmModel::decision(const std::vector<double> &X) const {
  double Sum = Bias;
  for (size_t I = 0; I != SupportVectors.size(); ++I)
    Sum += Coefficients[I] * rbfKernel(SupportVectors[I], X, Gamma);
  return Sum;
}

SquaredDistances::SquaredDistances(const Dataset &D)
    : N(D.size()), Pages(N ? N * (N - 1) / 2 * sizeof(double) : 0) {
  double *Packed = reinterpret_cast<double *>(Pages.data());
  size_t K = 0;
  for (size_t A = 0; A != N; ++A)
    for (size_t B = A + 1; B != N; ++B)
      Packed[K++] = squaredDistance(D.X[A], D.X[B]);
}

double RowFit::decision(const SquaredDistances &D2, size_t T) const {
  double Sum = Bias;
  for (size_t K = 0; K != SupportRows.size(); ++K)
    Sum += Coefficients[K] * std::exp(-Gamma * D2(SupportRows[K], T));
  return Sum;
}

namespace {

/// One scan's maximal violating pair: I maximises V = -y G over I_up, J
/// minimises it over I_low. An index past the last sample means the set
/// was empty.
struct Violators {
  double GMax, GMin;
  size_t I, J;
};

using V4d = double __attribute__((vector_size(32)));
using V4f = float __attribute__((vector_size(16)));
using V4i = int64_t __attribute__((vector_size(32)));

/// The fused SMO pass over \p Np entries (a multiple of 4): subtracts
/// DAi * Ki[t] + DAj * Kj[t] from V[t], then finds the maximal violating
/// pair of the updated V. Lane l covers the entries t = l (mod 4) and
/// keeps the first index of its extreme (strict comparisons); the lanes
/// then combine by (value, lowest index), which is exactly the first-index
/// tie-break of a serial scan. Up and Low are all-ones for members and
/// zero otherwise; pad entries are members of neither, so they never win.
/// Only pointers and scalars cross the boundary, so no vector is passed
/// by value between functions built for different instruction sets.
[[gnu::always_inline]] inline Violators
fusedPass(size_t Np, double *V, const int64_t *Up, const int64_t *Low,
          const float *Ki, const float *Kj, double DAi, double DAj) {
  constexpr double Inf = std::numeric_limits<double>::infinity();
  constexpr int64_t None = std::numeric_limits<int64_t>::max();
  const V4d NegInf = {-Inf, -Inf, -Inf, -Inf};
  const V4d PosInf = {Inf, Inf, Inf, Inf};
  const V4d Ai = {DAi, DAi, DAi, DAi};
  const V4d Aj = {DAj, DAj, DAj, DAj};
  const V4i Step = {4, 4, 4, 4};
  V4d MaxV = NegInf, MinV = PosInf;
  V4i MaxI = {None, None, None, None}, MinI = MaxI;
  V4i Idx = {0, 1, 2, 3};
  for (size_t T = 0; T != Np; T += 4, Idx += Step) {
    V4f Fi, Fj;
    V4d Vt;
    V4i U, L;
    std::memcpy(&Fi, Ki + T, sizeof Fi);
    std::memcpy(&Fj, Kj + T, sizeof Fj);
    std::memcpy(&Vt, V + T, sizeof Vt);
    std::memcpy(&U, Up + T, sizeof U);
    std::memcpy(&L, Low + T, sizeof L);
    Vt -= Ai * __builtin_convertvector(Fi, V4d) +
          Aj * __builtin_convertvector(Fj, V4d);
    std::memcpy(V + T, &Vt, sizeof Vt);
    V4d CandUp = U ? Vt : NegInf;
    V4i Gt = CandUp > MaxV;
    MaxV = Gt ? CandUp : MaxV;
    MaxI = Gt ? Idx : MaxI;
    V4d CandLow = L ? Vt : PosInf;
    V4i Lt = CandLow < MinV;
    MinV = Lt ? CandLow : MinV;
    MinI = Lt ? Idx : MinI;
  }
  double GMax = -Inf, GMin = Inf;
  int64_t I = None, J = None;
  for (unsigned Lane = 0; Lane != 4; ++Lane) {
    if (MaxV[Lane] > GMax || (MaxV[Lane] == GMax && MaxI[Lane] < I)) {
      GMax = MaxV[Lane];
      I = MaxI[Lane];
    }
    if (MinV[Lane] < GMin || (MinV[Lane] == GMin && MinI[Lane] < J)) {
      GMin = MinV[Lane];
      J = MinI[Lane];
    }
  }
  return {GMax, GMin, static_cast<size_t>(I), static_cast<size_t>(J)};
}

using PassFn = Violators (*)(size_t, double *, const int64_t *,
                             const int64_t *, const float *, const float *,
                             double, double);

Violators portablePass(size_t Np, double *V, const int64_t *Up,
                       const int64_t *Low, const float *Ki, const float *Kj,
                       double DAi, double DAj) {
  return fusedPass(Np, V, Up, Low, Ki, Kj, DAi, DAj);
}

#if defined(__x86_64__) || defined(__i386__)
// AVX2 without FMA: nothing is contracted, so the arithmetic is the
// portable pass's, four lanes to a register.
[[gnu::target("avx2")]] Violators avx2Pass(size_t Np, double *V,
                                           const int64_t *Up,
                                           const int64_t *Low,
                                           const float *Ki, const float *Kj,
                                           double DAi, double DAj) {
  return fusedPass(Np, V, Up, Low, Ki, Kj, DAi, DAj);
}
#endif

PassFn passFor(SmoIsa Isa) {
#if defined(__x86_64__) || defined(__i386__)
  if (Isa == SmoIsa::Avx2)
    return avx2Pass;
#endif
  (void)Isa;
  return portablePass;
}

} // namespace

SmoIsa svm::hostSmoIsa() {
#if defined(__x86_64__) || defined(__i386__)
  static const SmoIsa Isa = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? SmoIsa::Avx2 : SmoIsa::Portable;
  }();
  return Isa;
#else
  return SmoIsa::Portable;
#endif
}

RowFit svm::fitRows(const Dataset &D, const SquaredDistances *D2,
                    const std::vector<size_t> &Rows, const SvmParams &P,
                    SmoIsa Isa) {
  assert((Isa == SmoIsa::Portable || Isa == hostSmoIsa()) &&
         "the CPU cannot run this instruction set");
  const size_t N = Rows.size();
  assert(N > 0 && "cannot train on an empty dataset");
  std::vector<int> Y(N);
  size_t NumPos = 0;
  for (size_t I = 0; I != N; ++I) {
    Y[I] = D.Y[Rows[I]];
    NumPos += Y[I] > 0;
  }
  size_t NumNeg = N - NumPos;
  assert(NumPos > 0 && NumNeg > 0 && "need samples of both classes");

  double WPos = P.PositiveClassWeight;
  if (P.AutoClassWeight)
    WPos = static_cast<double>(NumNeg) / static_cast<double>(NumPos);
  const double CPos = P.C * WPos;
  const double CNeg = P.C;

  // The kernel matrix in float: float(exp(-gamma * distance)), the bits
  // of float(rbfKernel). Rows are padded with zeros to Np entries, and
  // one extra all-zero row lets the first scan run as an update by zero.
  // Its own zero-filled mapping hands the pages back to the OS on return.
  const size_t Np = (N + 3) / 4 * 4;
  ZeroPages KPages((N + 1) * Np * sizeof(float));
  float *K = reinterpret_cast<float *>(KPages.data());
  for (size_t I = 0; I != N; ++I) {
    K[I * Np + I] = 1.0f; // exp(0)
    for (size_t J = I + 1; J != N; ++J) {
      double Dist2 = D2 ? (*D2)(Rows[I], Rows[J])
                        : squaredDistance(D.X[Rows[I]], D.X[Rows[J]]);
      float V = static_cast<float>(std::exp(-P.Gamma * Dist2));
      K[I * Np + J] = V;
      K[J * Np + I] = V;
    }
  }
  const float *ZeroRow = &K[N * Np];

  std::vector<double> Alpha(N, 0.0);
  std::vector<double> Cap(N);
  // V = -y G is kept instead of the gradient G = Q alpha - e: for
  // y = +-1, -y (G + y s) == (-y G) - s holds bit for bit, so the pass
  // subtracts the update without touching y. Pad entries stay 0.
  std::vector<double> V(Np, 0.0);
  // I_up / I_low membership masks, recomputed only where alpha moved.
  std::vector<int64_t> Up(Np, 0), Low(Np, 0);

  auto InUp = [&](size_t I) {
    return (Y[I] > 0 && Alpha[I] < Cap[I]) || (Y[I] < 0 && Alpha[I] > 0.0);
  };
  auto InLow = [&](size_t I) {
    return (Y[I] > 0 && Alpha[I] > 0.0) || (Y[I] < 0 && Alpha[I] < Cap[I]);
  };
  auto SetMasks = [&](size_t I) {
    Up[I] = InUp(I) ? -1 : 0;
    Low[I] = InLow(I) ? -1 : 0;
  };
  for (size_t I = 0; I != N; ++I) {
    Cap[I] = Y[I] > 0 ? CPos : CNeg;
    V[I] = -static_cast<double>(Y[I]) * -1.0; // G starts at -1
    SetMasks(I);
  }

  const PassFn Pass = passFor(Isa);
  Violators S = Pass(Np, V.data(), Up.data(), Low.data(), ZeroRow, ZeroRow,
                     0.0, 0.0);
  size_t Iter = 0;
  for (; Iter != P.MaxIterations; ++Iter) {
    // Stop when either set is empty or the KKT gap closes.
    if (S.I >= N || S.J >= N || S.GMax - S.GMin < P.Epsilon)
      break;

    const size_t I = S.I, J = S.J;
    const double Yi = Y[I], Yj = Y[J];
    const float *Ki = &K[I * Np];
    const float *Kj = &K[J * Np];

    // Second-order curvature along the (i, j) direction.
    double Quad = Ki[I] + Kj[J] - 2.0 * Yi * Yj * Ki[J];
    if (Quad <= 0.0)
      Quad = 1e-12;
    double Delta = (S.GMax - S.GMin) / Quad;

    // Update alphas under box constraints (work in the y-scaled space).
    double OldAi = Alpha[I], OldAj = Alpha[J];
    Alpha[I] += Yi * Delta;
    Alpha[J] -= Yj * Delta;
    Alpha[I] = std::clamp(Alpha[I], 0.0, Cap[I]);
    // Preserve the equality constraint sum(y*alpha) = const.
    double Shift = Yi * (Alpha[I] - OldAi);
    Alpha[J] = OldAj - Yj * Shift;
    Alpha[J] = std::clamp(Alpha[J], 0.0, Cap[J]);
    // Re-adjust i in case j clipped.
    Shift = Yj * (Alpha[J] - OldAj);
    Alpha[I] = OldAi - Yi * Shift;
    Alpha[I] = std::clamp(Alpha[I], 0.0, Cap[I]);

    double DAi = (Alpha[I] - OldAi) * Yi;
    double DAj = (Alpha[J] - OldAj) * Yj;
    if (DAi == 0.0 && DAj == 0.0)
      break; // numerically stuck
    SetMasks(I);
    SetMasks(J);
    S = Pass(Np, V.data(), Up.data(), Low.data(), Ki, Kj, DAi, DAj);
  }

  // Bias from the free support vectors (fall back to the KKT midpoint).
  double BiasSum = 0.0;
  size_t FreeCount = 0;
  double UpBound = -std::numeric_limits<double>::infinity();
  double LowBound = std::numeric_limits<double>::infinity();
  for (size_t I = 0; I != N; ++I) {
    if (Alpha[I] > 0.0 && Alpha[I] < Cap[I]) {
      BiasSum += V[I];
      ++FreeCount;
    }
    if (InUp(I))
      UpBound = std::max(UpBound, V[I]);
    if (InLow(I))
      LowBound = std::min(LowBound, V[I]);
  }

  RowFit Fit;
  Fit.Gamma = P.Gamma;
  Fit.Bias = FreeCount ? BiasSum / static_cast<double>(FreeCount)
                       : (UpBound + LowBound) / 2.0;
  Fit.Iterations = Iter;
  Fit.Capped = Iter == P.MaxIterations;

  // Dual objective from the maintained gradient G = -y V = Q alpha - e:
  // f(alpha) = 0.5 alpha'Q alpha - e'alpha = 0.5 (alpha'G - e'alpha).
  double AlphaDotG = 0.0, AlphaSum = 0.0;
  for (size_t I = 0; I != N; ++I) {
    AlphaDotG += Alpha[I] * (-static_cast<double>(Y[I]) * V[I]);
    AlphaSum += Alpha[I];
  }
  Fit.Objective = 0.5 * (AlphaDotG - AlphaSum);

  for (size_t I = 0; I != N; ++I)
    if (Alpha[I] > 1e-12) {
      Fit.SupportRows.push_back(Rows[I]);
      Fit.Coefficients.push_back(Alpha[I] * static_cast<double>(Y[I]));
    }

  auto &Reg = obs::MetricsRegistry::global();
  static obs::Counter &Trainings = Reg.counter("ml.svm.trainings");
  static obs::Counter &Iterations = Reg.counter("ml.svm.iterations");
  static obs::Counter &Capped = Reg.counter("ml.svm.capped");
  static obs::Histogram &IterHist = Reg.histogram("ml.svm.iterations_hist");
  Trainings.inc();
  Iterations.inc(Iter);
  Capped.inc(Fit.Capped);
  IterHist.observe(Iter);
  if (obs::logEnabled(obs::Severity::Debug))
    obs::TraceSink::event(
        "svm.train",
        obs::AttrSet()
            .add("samples", static_cast<uint64_t>(N))
            .add("c", P.C)
            .add("gamma", P.Gamma)
            .add("iterations", static_cast<uint64_t>(Iter))
            .add("capped", Fit.Capped)
            .add("objective", Fit.Objective)
            .add("support_vectors",
                 static_cast<uint64_t>(Fit.SupportRows.size())));
  return Fit;
}

SvmModel ipas::trainCSvc(const Dataset &D, const SvmParams &P) {
  std::vector<size_t> Rows(D.size());
  std::iota(Rows.begin(), Rows.end(), size_t(0));
  // One fit uses each distance once, so it needs no distance matrix.
  RowFit Fit = fitRows(D, nullptr, Rows, P);
  SvmModel Model;
  Model.Gamma = Fit.Gamma;
  Model.Bias = Fit.Bias;
  Model.Iterations = Fit.Iterations;
  Model.FinalObjective = Fit.Objective;
  for (size_t Row : Fit.SupportRows)
    Model.SupportVectors.push_back(D.X[Row]);
  Model.Coefficients = std::move(Fit.Coefficients);
  return Model;
}
