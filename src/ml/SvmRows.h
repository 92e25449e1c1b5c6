//===- ml/SvmRows.h - The C-SVC trainer over rows of a dataset -------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal to src/ml and its tests. The one SMO trainer works on row
/// indices of a dataset. It can take its RBF kernel from a
/// squared-distance matrix computed once for the whole dataset, so the
/// grid search pays for the feature-distance loop once instead of once
/// per (C, gamma, fold) fit. trainCSvc and crossValidate (Svm.h,
/// ModelSelection.h) are thin wrappers over it. Every value is
/// bit-identical to the direct rbfKernel formulation: (a - b)^2 ==
/// (b - a)^2, and the summation over features runs in the same order.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_ML_SVMROWS_H
#define IPAS_ML_SVMROWS_H

#include "ml/Svm.h"
#include "support/ZeroPages.h"

#include <utility>

namespace ipas {
namespace svm {

/// ||X_A - X_B||^2 for every pair of rows of a dataset, packed as the
/// strict upper triangle (N (N - 1) / 2 doubles: ~640 KB at N = 400).
/// The matrix lives in its own mapping, so its pages go back to the OS
/// when it is destroyed instead of staying in a malloc arena.
class SquaredDistances {
public:
  explicit SquaredDistances(const Dataset &D);

  /// The distance between rows \p A and \p B; 0 when they are the same.
  double operator()(size_t A, size_t B) const {
    if (A == B)
      return 0.0;
    if (A > B)
      std::swap(A, B);
    return packed()[rowBase(A) + (B - A - 1)];
  }

private:
  /// Index of the pair (A, A + 1).
  size_t rowBase(size_t A) const { return A * (2 * N - A - 1) / 2; }

  const double *packed() const {
    return reinterpret_cast<const double *>(Pages.data());
  }

  size_t N;
  ZeroPages Pages;
};

/// A C-SVC fitted on a subset of a dataset's rows.
struct RowFit {
  std::vector<size_t> SupportRows; ///< Rows of the dataset, in fit order.
  std::vector<double> Coefficients; ///< alpha_i * y_i per support row.
  double Gamma = 0.0;
  double Bias = 0.0;
  double Objective = 0.0;
  size_t Iterations = 0;
  /// True when SMO stopped at SvmParams::MaxIterations.
  bool Capped = false;

  /// The decision value at row \p T of the dataset behind \p D2; equal
  /// to SvmModel::decision on that row's features.
  double decision(const SquaredDistances &D2, size_t T) const;
};

/// The instruction set the SMO pass runs on. Both give the same bits.
enum class SmoIsa { Portable, Avx2 };
/// Avx2 when this build targets x86 and the CPU has AVX2, else Portable;
/// decided once per process.
SmoIsa hostSmoIsa();

/// Trains on the rows \p Rows (both classes present) of \p D. The kernel
/// takes its distances from \p D2, D's distance matrix, or computes them
/// from the features when it is null. \p Isa is Portable or
/// hostSmoIsa().
RowFit fitRows(const Dataset &D, const SquaredDistances *D2,
               const std::vector<size_t> &Rows, const SvmParams &P,
               SmoIsa Isa = hostSmoIsa());

} // namespace svm
} // namespace ipas

#endif // IPAS_ML_SVMROWS_H
