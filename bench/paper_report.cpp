//===- bench/paper_report.cpp - The paper's evaluation, checked -----------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates every table and figure of the paper's evaluation (§6) from
/// one IpasPipeline::run() per workload: Table 3, Figures 5-7, Table 4,
/// Figure 8, Figure 9 and Table 6, printed as the markdown tables
/// EXPERIMENTS.md quotes, with the paper's reference rows. A Claims
/// section then checks the paper's relational claims and the process
/// exits 1 when one fails.
///
/// Everything but Table 6's "Measured train / duplicate" and "Measured
/// total" rows is deterministic for the flags; bench/paper_report.txt is
/// the checked-in default-scale output, and ctest diffs a fresh run
/// against it.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include <algorithm>
#include <cstdarg>
#include <functional>

using namespace ipas;
using namespace ipas::bench;

namespace {

/// The paper's numbers, as EXPERIMENTS.md quotes them.
struct PaperRow {
  const char *Workload;
  const char *InstructionsLoc; ///< Table 3.
  const char *UnprotectedSoc;  ///< §6.2.
  const char *SocReduction;    ///< Table 4, IPAS / Baseline.
  const char *Slowdown;        ///< Table 4, IPAS / Baseline.
  const char *TrainDuplicate;  ///< Table 6, seconds.
};

const PaperRow PaperRows[] = {
    {"CoMD", "12240 / 3036", "2.6%", "67.6 / 62.7", "1.17 / 2.09",
     "30.1 / 5.6"},
    {"HPCCG", "5107 / 1313", "7.7%", "81.4 / 91.0", "1.18 / 1.66",
     "30.1 / 6.7"},
    {"AMG", "4478 / 952", "3.1%", "76.9 / 73.9", "1.10 / 2.10",
     "30.4 / 2.3"},
    {"FFT", "566 / 249", "10.5%", "90.0 / 88.5", "1.35 / 1.81",
     "30.0 / 0.7"},
    {"IS", "1457 / 701", "10.75%", "86.9 / 84.1", "1.04 / 1.79",
     "30.0 / 1.6"},
};

const int RankCounts[] = {1, 2, 4, 8}; ///< Figure 8.
const int NumInputs = 4;               ///< Figure 9: Table 5's inputs.

/// One workload's evaluation plus the two studies built on its best
/// IPAS configuration.
struct Evaluated {
  const PaperRow *Paper = nullptr;
  WorkloadEvaluation WE;
  std::vector<double> Scaling;        ///< Figure 8, per RankCounts entry.
  std::vector<double> InputReduction; ///< Figure 9, SOC reduction %.
  double InputAverage = 0.0;
  double IpasDupPct = 0.0;            ///< Figure 7, top-N average.
  double BaselineDupPct = 0.0;
  double FullDupPct = 0.0;
};

Evaluated evaluateWorkload(const Workload &W, const PipelineConfig &Cfg) {
  Evaluated E;
  for (const PaperRow &R : PaperRows)
    if (W.name() == R.Workload)
      E.Paper = &R;
  IpasPipeline Pipeline(W, Cfg);
  E.WE = Pipeline.run();

  double IpasSum = 0, BaseSum = 0;
  int IpasN = 0, BaseN = 0;
  for (const VariantEvaluation &V : E.WE.Variants) {
    double F = V.Dup.duplicatedFraction();
    if (V.Tech == Technique::Ipas) {
      IpasSum += F;
      ++IpasN;
    } else if (V.Tech == Technique::Baseline) {
      BaseSum += F;
      ++BaseN;
    } else if (V.Tech == Technique::FullDup) {
      E.FullDupPct = 100.0 * F;
    }
  }
  E.IpasDupPct = IpasN ? 100.0 * IpasSum / IpasN : 0.0;
  E.BaselineDupPct = BaseN ? 100.0 * BaseSum / BaseN : 0.0;

  // Figures 8 and 9 rebuild the best IPAS variant from the training data
  // run() just used, so no second campaign or grid search runs. run()
  // evaluates TopN >= 1 configurations per technique, so a best one
  // exists.
  const VariantEvaluation *Best = E.WE.bestVariant(Technique::Ipas);
  IpasPipeline::ProtectedModule Prot = Pipeline.protect(
      Pipeline.selectInstructions(Technique::Ipas, Best->Config.Params,
                                  E.WE.Training));
  for (int P : RankCounts)
    E.Scaling.push_back(Pipeline.scalabilitySlowdown(Prot, P));
  IpasPipeline::ProtectedModule Unprot = Pipeline.protectNone();
  for (int Level = 1; Level <= NumInputs; ++Level) {
    CampaignResult U =
        Pipeline.evaluate(Unprot, Cfg.Seed ^ (0xF90 + Level), Level);
    CampaignResult Pr =
        Pipeline.evaluate(Prot, Cfg.Seed ^ (0xF94 + Level), Level);
    double USoc = U.fraction(Outcome::SOC);
    E.InputReduction.push_back(
        USoc > 0.0 ? 100.0 * (USoc - Pr.fraction(Outcome::SOC)) / USoc
                   : 0.0);
    E.InputAverage += E.InputReduction.back();
  }
  E.InputAverage /= NumInputs;
  return E;
}

__attribute__((format(printf, 1, 2))) std::string fmt(const char *F, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, F);
  std::vsnprintf(Buf, sizeof(Buf), F, Args);
  va_end(Args);
  return Buf;
}

double pct(const CampaignResult &C, Outcome O) {
  return 100.0 * C.fraction(O);
}

/// One markdown table row; an empty cell prints as "| |".
void row(const std::string &First, const std::vector<std::string> &Cells) {
  std::printf("|%s%s |", First.empty() ? "" : " ", First.c_str());
  for (const std::string &C : Cells)
    std::printf(" %s |", C.c_str());
  std::printf("\n");
}

void header(const std::string &First,
            const std::vector<std::string> &Columns) {
  row(First, Columns);
  std::printf("|---|");
  for (size_t K = 0; K != Columns.size(); ++K)
    std::printf("---|");
  std::printf("\n");
}

/// A table with one column per workload: a header row, then one row per
/// \p Rows entry, each cell from its function.
using CellFn = std::function<std::string(const Evaluated &)>;
void workloadTable(const char *Corner, const std::vector<Evaluated> &Evals,
                   const std::vector<std::pair<const char *, CellFn>> &Rows) {
  std::vector<std::string> Names;
  for (const Evaluated &E : Evals)
    Names.push_back(E.WE.WorkloadName);
  header(Corner, Names);
  for (const auto &[Label, Cell] : Rows) {
    std::vector<std::string> Cells;
    for (const Evaluated &E : Evals)
      Cells.push_back(Cell(E));
    row(Label, Cells);
  }
  std::printf("\n");
}

/// Paper Figure 8 holds when slowdown is flat in rank count within this
/// ratio of the largest to the smallest.
const double FlatScalingRatio = 1.10;

/// Prints the Claims section; returns false when a claim fails.
bool checkClaims(const std::vector<Evaluated> &Evals, bool AllFive) {
  std::printf("## Claims\n\n");
  header("claim", {"verdict", "evidence"});
  int Passed = 0, Failed = 0, NotApplicable = 0;
  auto Claim = [&](const char *Text, int Verdict, const std::string &Why) {
    // Verdict: 1 pass, 0 fail, -1 not applicable.
    Passed += Verdict > 0;
    Failed += Verdict == 0;
    NotApplicable += Verdict < 0;
    row(Text, {Verdict > 0 ? "pass" : Verdict == 0 ? "FAIL" : "n/a", Why});
  };

  // §6.3, Figure 7: IPAS protects fewer instructions than Baseline.
  {
    int Holds = 0;
    std::string Exceptions;
    for (const Evaluated &E : Evals) {
      if (E.IpasDupPct < E.BaselineDupPct)
        ++Holds;
      else
        Exceptions += fmt(", not %s (%.1f%% vs %.1f%%)",
                          E.WE.WorkloadName.c_str(), E.IpasDupPct,
                          E.BaselineDupPct);
    }
    const char *Text = "IPAS duplicates fewer instructions than Baseline "
                       "(top-N average) on at least 4 of 5 workloads";
    if (AllFive)
      Claim(Text, Holds >= 4,
            fmt("%d of %zu", Holds, Evals.size()) + Exceptions);
    else
      Claim(Text, -1, "needs all five workloads");
  }

  // §6.3, Figure 6: full duplication costs the most.
  {
    bool Holds = true;
    double Tightest = 0.0;
    std::string Closest;
    for (const Evaluated &E : Evals) {
      const VariantEvaluation *Full = E.WE.variant("full");
      for (const VariantEvaluation &V : E.WE.Variants) {
        if (V.Tech != Technique::Ipas && V.Tech != Technique::Baseline)
          continue;
        Holds &= Full->Slowdown > V.Slowdown;
        double Ratio = Full->Slowdown / V.Slowdown;
        if (Closest.empty() || Ratio < Tightest) {
          Tightest = Ratio;
          Closest = fmt("closest: %s full %.3f vs %s %.3f",
                        E.WE.WorkloadName.c_str(), Full->Slowdown,
                        V.Label.c_str(), V.Slowdown);
        }
      }
    }
    Claim("Full duplication is slower than every ipas-* and baseline-* "
          "variant on every workload",
          Holds, Closest);
  }

  // §6.4, Figure 8: slowdown stays flat with the rank count.
  {
    bool Holds = true;
    double Worst = 0.0;
    std::string Largest;
    for (const Evaluated &E : Evals) {
      auto [Min, Max] =
          std::minmax_element(E.Scaling.begin(), E.Scaling.end());
      double Ratio = *Max / *Min;
      Holds &= Ratio <= FlatScalingRatio;
      if (Ratio > Worst) {
        Worst = Ratio;
        Largest = fmt("largest: %s %.3f / %.3f = %.3f",
                      E.WE.WorkloadName.c_str(), *Max, *Min, Ratio);
      }
    }
    Claim("Figure 8 slowdown is flat in rank count: max / min over "
          "P = 1, 2, 4, 8 is at most 1.10 on every workload",
          Holds, Largest);
  }

  // §6.2, Figure 5: protection cuts SOC beyond sampling error where the
  // unprotected SOC rate is high enough to tell.
  {
    bool Holds = true;
    std::string Evidence;
    for (const Evaluated &E : Evals) {
      const std::string &N = E.WE.WorkloadName;
      const VariantEvaluation *Unprot = E.WE.variant("unprotected");
      const VariantEvaluation *Best = E.WE.bestVariant(Technique::Ipas);
      if (N != "HPCCG" && N != "FFT" && N != "IS")
        continue;
      double U = Unprot->Campaign.fraction(Outcome::SOC);
      double B = Best->Campaign.fraction(Outcome::SOC);
      double Low =
          U - proportionMarginOfError(U, Unprot->Campaign.totalRuns());
      double High =
          B + proportionMarginOfError(B, Best->Campaign.totalRuns());
      Holds &= Low > High;
      Evidence += fmt("%s%s %.2f%% %s %.2f%%", Evidence.empty() ? "" : ", ",
                      N.c_str(), 100.0 * Low, Low > High ? ">" : "<=",
                      100.0 * High);
    }
    Claim("On HPCCG, FFT and IS the 95% intervals of unprotected and "
          "best-IPAS SOC do not overlap (unprotected low end > IPAS "
          "high end)",
          Evidence.empty() ? -1 : Holds,
          Evidence.empty() ? "no HPCCG, FFT or IS selected" : Evidence);
  }

  std::printf("\nclaims: %d pass, %d fail, %d n/a\n", Passed, Failed,
              NotApplicable);
  return Failed == 0;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseOptions(
      Argc, Argv,
      "paper_report: every §6 table and figure from one evaluation per "
      "workload, and the paper's claims as checks (exit 1 on a failed "
      "claim)");
  const PipelineConfig &Cfg = Opts.Cfg;
  BenchReport Report("paper_report", Opts);

  auto Workloads = selectedWorkloads(Opts);
  std::vector<Evaluated> Evals;
  for (const auto &W : Workloads)
    Evals.push_back(evaluateWorkload(*W, Cfg));

  std::printf("# IPAS paper report\n\n");
  std::printf("(train-samples=%zu eval-runs=%zu grid=%ux%u folds=%u "
              "top=%u seed=0x%llx)\n\n",
              Cfg.TrainSamples, Cfg.EvalRuns, Cfg.Grid.CSteps,
              Cfg.Grid.GammaSteps, Cfg.Grid.Folds, Cfg.TopN,
              static_cast<unsigned long long>(Cfg.Seed));

  std::printf("## Table 3 — static instructions and lines of code\n\n");
  workloadTable(
      "", Evals,
      {{"**Paper** instructions / LoC",
        [](const Evaluated &E) { return E.Paper->InstructionsLoc; }},
       {"**Measured** instructions / LoC", [](const Evaluated &E) {
          return fmt("%zu / %zu", E.WE.StaticInstructions,
                     E.WE.LinesOfCode);
        }}});

  std::printf("## Figure 5 — coverage (outcome breakdown per "
              "technique)\n\n");
  workloadTable(
      "", Evals,
      {{"Paper SOC (unprotected)",
        [](const Evaluated &E) { return E.Paper->UnprotectedSoc; }},
       {"Measured SOC (unprotected)",
        [](const Evaluated &E) {
          const VariantEvaluation *U = E.WE.variant("unprotected");
          return fmt("%.1f%%", pct(U->Campaign, Outcome::SOC));
        }},
       {"Measured masked (unprotected)", [](const Evaluated &E) {
          const VariantEvaluation *U = E.WE.variant("unprotected");
          return fmt("%.1f%%", pct(U->Campaign, Outcome::Masked));
        }}});
  header("code", {"variant", "symptom", "detected", "masked",
                  "SOC ± 95% margin"});
  for (const Evaluated &E : Evals)
    for (const VariantEvaluation &V : E.WE.Variants) {
      const CampaignResult &C = V.Campaign;
      double Soc = C.fraction(Outcome::SOC);
      row(E.WE.WorkloadName,
          {V.Label,
           fmt("%.1f%%", pct(C, Outcome::Crash) + pct(C, Outcome::Hang)),
           fmt("%.1f%%", pct(C, Outcome::Detected)),
           fmt("%.1f%%", pct(C, Outcome::Masked)),
           fmt("%.2f%% ± %.2f%%", 100.0 * Soc,
               100.0 * proportionMarginOfError(Soc, C.totalRuns()))});
    }

  std::printf("\n## Figure 6 — SOC reduction vs. slowdown\n\n");
  header("code",
         {"config", "slowdown", "SOC reduction", "dup. fraction", "F-score"});
  for (const Evaluated &E : Evals)
    for (const VariantEvaluation &V : E.WE.Variants)
      if (V.Tech != Technique::Unprotected)
        row(E.WE.WorkloadName,
            {V.Label, fmt("%.3f", V.Slowdown),
             fmt("%.1f%%", V.SocReductionPct),
             fmt("%.3f", V.Dup.duplicatedFraction()),
             fmt("%.3f", V.Config.FScore)});

  std::printf("\n## Figure 7 — %% duplicated instructions (top-%u "
              "average)\n\n",
              Cfg.TopN);
  workloadTable(
      "measured", Evals,
      {{"IPAS",
        [](const Evaluated &E) { return fmt("%.1f%%", E.IpasDupPct); }},
       {"Baseline",
        [](const Evaluated &E) { return fmt("%.1f%%", E.BaselineDupPct); }},
       {"Full",
        [](const Evaluated &E) { return fmt("%.1f%%", E.FullDupPct); }}});

  std::printf("## Table 4 — best configurations (ideal-point "
              "criterion)\n\n");
  header("Code", {"SOC red. IPAS / Baseline (paper)",
                  "SOC red. IPAS / Baseline (measured)",
                  "Slowdown IPAS / Baseline (paper)", "measured"});
  for (const Evaluated &E : Evals) {
    const VariantEvaluation *BI = E.WE.bestVariant(Technique::Ipas);
    const VariantEvaluation *BB = E.WE.bestVariant(Technique::Baseline);
    row(E.WE.WorkloadName,
        {E.Paper->SocReduction,
         fmt("%.1f / %.1f", BI->SocReductionPct, BB->SocReductionPct),
         E.Paper->Slowdown, fmt("%.2f / %.2f", BI->Slowdown, BB->Slowdown)});
  }
  std::printf("\n");
  header("Code", {"best IPAS (C, γ)", "SOC red.", "slowdown",
                  "best Baseline (C, γ)", "SOC red.", "slowdown"});
  for (const Evaluated &E : Evals) {
    std::vector<std::string> Cells;
    for (Technique T : {Technique::Ipas, Technique::Baseline}) {
      const VariantEvaluation *V = E.WE.bestVariant(T);
      Cells.push_back(fmt("%s (%g, %g)", V->Label.c_str(),
                          V->Config.Params.C, V->Config.Params.Gamma));
      Cells.push_back(fmt("%.2f%%", V->SocReductionPct));
      Cells.push_back(fmt("%.2f", V->Slowdown));
    }
    row(E.WE.WorkloadName, Cells);
  }

  std::printf("\n## Figure 8 — strong-scaling slowdown (best IPAS "
              "configuration)\n\n");
  std::vector<std::string> Ranks;
  for (int P : RankCounts)
    Ranks.push_back(std::to_string(P));
  header("ranks", Ranks);
  for (const Evaluated &E : Evals) {
    std::vector<std::string> Cells;
    for (double S : E.Scaling)
      Cells.push_back(fmt("%.3f", S));
    row(E.WE.WorkloadName, Cells);
  }

  std::printf("\n## Figure 9 — SOC reduction across inputs (trained on "
              "input 1)\n\n");
  header("SOC reduction",
         {"input1", "input2", "input3", "input4", "average"});
  for (const Evaluated &E : Evals) {
    std::vector<std::string> Cells;
    for (double R : E.InputReduction)
      Cells.push_back(fmt("%.1f%%", R));
    Cells.push_back(fmt("%.1f%%", E.InputAverage));
    row(E.WE.WorkloadName, Cells);
  }

  std::printf("\n## Table 6 — training and duplication time\n\n");
  workloadTable(
      "seconds", Evals,
      {{"Paper train / duplicate",
        [](const Evaluated &E) { return E.Paper->TrainDuplicate; }},
       {"Measured train / duplicate",
        [](const Evaluated &E) {
          return fmt("%.2f / %.2f", E.WE.Training.TrainSeconds,
                     E.WE.DuplicateSeconds);
        }},
       {"Measured total", [](const Evaluated &E) {
          return fmt("%.2f",
                     E.WE.Training.TrainSeconds + E.WE.DuplicateSeconds);
        }}});

  bool ClaimsHold = checkClaims(Evals, Opts.WorkloadFilter.empty());

  // BENCH_paper_report.json: the keys the per-table binaries it
  // replaced wrote, per workload.
  for (const Evaluated &E : Evals) {
    const std::string &N = E.WE.WorkloadName;
    const VariantEvaluation *BI = E.WE.bestVariant(Technique::Ipas);
    const VariantEvaluation *BB = E.WE.bestVariant(Technique::Baseline);
    Report.metric(N + ".static_instructions", E.WE.StaticInstructions);
    Report.metric(N + ".lines_of_code", E.WE.LinesOfCode);
    Report.metric(N + ".unprotected_soc_pct",
                  pct(E.WE.variant("unprotected")->Campaign, Outcome::SOC));
    Report.metric(N + ".ipas_best_soc_pct", pct(BI->Campaign, Outcome::SOC));
    for (const char *Key : {".ipas_best_slowdown", ".ipas_slowdown"})
      Report.metric(N + Key, BI->Slowdown);
    for (const char *Key :
         {".ipas_best_soc_reduction_pct", ".ipas_soc_reduction_pct"})
      Report.metric(N + Key, BI->SocReductionPct);
    for (const char *Key : {".baseline_best_slowdown", ".baseline_slowdown"})
      Report.metric(N + Key, BB->Slowdown);
    for (const char *Key : {".baseline_best_soc_reduction_pct",
                            ".baseline_soc_reduction_pct"})
      Report.metric(N + Key, BB->SocReductionPct);
    Report.metric(N + ".ipas_dup_pct", E.IpasDupPct);
    Report.metric(N + ".baseline_dup_pct", E.BaselineDupPct);
    for (size_t K = 0; K != E.Scaling.size(); ++K)
      Report.metric(N + ".slowdown_p" + std::to_string(RankCounts[K]),
                    E.Scaling[K]);
    for (size_t K = 0; K != E.InputReduction.size(); ++K)
      Report.metric(N + ".soc_reduction_input" + std::to_string(K + 1),
                    E.InputReduction[K]);
    Report.metric(N + ".soc_reduction_avg", E.InputAverage);
    Report.metric(N + ".train_seconds", E.WE.Training.TrainSeconds);
    Report.metric(N + ".duplicate_seconds", E.WE.DuplicateSeconds);
  }
  return ClaimsHold ? 0 : 1;
}
