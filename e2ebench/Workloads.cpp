//===- e2ebench/Workloads.cpp - The three benchmark workloads --------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// workflow-is: the paper's Figure 1 workflow on IS (IpasPipeline::run).
/// train-grid:  the SVM grid search and top-N fits on IS and FFT datasets.
/// adhoc-vm:    ipas-cc style campaigns on the bytecode VM, with record
///              and session stores written and read back, and incremental
///              re-campaigns of edited programs.
/// Each workload's run() is the timed work; check() verifies its outputs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/FunctionSummary.h"
#include "core/Pipeline.h"
#include "fault/FunctionHarness.h"
#include "fault/Incremental.h"
#include "fault/RecordBuild.h"
#include "fault/SessionBuild.h"
#include "frontend/CodeGen.h"
#include "testing/ProgramGen.h"
#include "transform/Duplication.h"
#include "transform/Mem2Reg.h"
#include "transform/SimplifyCFG.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace ipas;

namespace bench {
namespace {

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Checks a campaign's internal consistency: \p Runs records whose
/// outcome tallies equal its counts. Returns "" when consistent.
std::string inconsistency(const CampaignResult &R, size_t Runs) {
  if (R.Records.size() != Runs)
    return "expected " + std::to_string(Runs) + " records, got " +
           std::to_string(R.Records.size());
  std::array<size_t, NumOutcomes> Tally{};
  for (const InjectionRecord &Rec : R.Records)
    ++Tally[static_cast<size_t>(Rec.Result)];
  if (Tally != R.Counts)
    return "outcome counts disagree with the records";
  return {};
}

uint64_t rankedDigest(const std::vector<RankedConfig> &Ranked) {
  Digest D;
  D.u64(Ranked.size());
  for (const RankedConfig &RC : Ranked)
    D.f64(RC.Params.C)
        .f64(RC.Params.Gamma)
        .f64(RC.FScore)
        .f64(RC.Accuracies.Accuracy1)
        .f64(RC.Accuracies.Accuracy2);
  return D.value();
}

bool rankedSorted(const std::vector<RankedConfig> &Ranked) {
  for (size_t I = 1; I < Ranked.size(); ++I)
    if (Ranked[I - 1].FScore < Ranked[I].FScore)
      return false;
  return true;
}

/// Campaign and grid sizes: PipelineConfig::defaults(), or a tiny version
/// of it for the self-test.
PipelineConfig pipelineConfig(const Options &O) {
  PipelineConfig Cfg = PipelineConfig::defaults();
  Cfg.Seed = O.Seed;
  if (O.Tiny) {
    Cfg.TrainSamples = 60;
    Cfg.EvalRuns = 24;
    Cfg.Grid.CSteps = 2;
    Cfg.Grid.GammaSteps = 2;
    Cfg.Grid.Folds = 2;
    Cfg.TopN = 2;
  }
  return Cfg;
}

//===----------------------------------------------------------------------===//
// workflow-is
//===----------------------------------------------------------------------===//

class WorkflowIs : public BenchWorkload {
public:
  explicit WorkflowIs(const Options &O) : Cfg(pipelineConfig(O)) {}

  unsigned setupRepeats() const override { return 15; }

  /// Compiles IS and runs it once clean: what a user does before handing
  /// a code to the workflow.
  void setUp(Checks &C, SetupStats &S) override {
    W = ipas::makeWorkload("IS");
    std::unique_ptr<Module> M;
    {
      TimedSpan T(S.Layers, "frontend.compile_s", "frontend.compiles");
      M = compileWorkload(*W);
    }
    S.Layers.add("frontend.instructions",
                 static_cast<double>(M->numInstructions()));
    ModuleLayout Layout(*M);
    WorkloadHarness Harness(*W, Cfg.InputLevel);
    ExecutionRecord R;
    {
      TimedSpan T(S.Layers, "workloads.clean_run_s");
      R = Harness.execute(Layout, nullptr, UINT64_MAX);
    }
    C.op("setup.clean_run",
         R.Status == RunStatus::Finished && R.OutputValid,
         "the clean IS run failed");
  }

  void run(IterationStats &S) override {
    IpasPipeline P(*W, Cfg);
    Eval = P.run();
    S.Fault.add("training", Eval->Training.Campaign, Cfg.Backend, 1);
    for (const VariantEvaluation &V : Eval->Variants)
      S.Fault.add(V.Label, V.Campaign, Cfg.Backend, 1);
    if (const VariantEvaluation *Best = Eval->bestVariant(Technique::Ipas)) {
      S.IpasSlowdown = Best->Slowdown;
      S.IpasSocReductionPct = Best->SocReductionPct;
    }
  }

  void check(Checks &C, IterationStats &) override {
    const WorkloadEvaluation &E = *Eval;
    const CampaignResult &Train = E.Training.Campaign;
    std::string Why = inconsistency(Train, Cfg.TrainSamples);
    C.digestOp("training", campaignDigest(Train), Why.empty(), Why);
    for (const VariantEvaluation &V : E.Variants) {
      Why = inconsistency(V.Campaign, Cfg.EvalRuns);
      C.digestOp(V.Label, campaignDigest(V.Campaign), Why.empty(), Why);
    }
    size_t Grid = size_t(Cfg.Grid.CSteps) * Cfg.Grid.GammaSteps;
    size_t Expect = std::min<size_t>(Cfg.TopN, Grid);
    for (auto [Name, Ranked] :
         {std::pair{"grid.ipas", &E.Training.IpasConfigs},
          std::pair{"grid.baseline", &E.Training.BaselineConfigs}})
      C.digestOp(Name, rankedDigest(*Ranked),
                 Ranked->size() == Expect && rankedSorted(*Ranked),
                 "ranking is short or out of F-score order");

    // Table 4 and the paper's relations: the best IPAS variant is cheaper
    // than full duplication and removes some SOCs.
    Digest D;
    for (const VariantEvaluation &V : E.Variants)
      D.str(V.Label)
          .f64(V.Slowdown)
          .f64(V.SocReductionPct)
          .u64(V.Dup.DuplicatedInstructions)
          .u64(V.Dup.ChecksInserted);
    const VariantEvaluation *Best = E.bestVariant(Technique::Ipas);
    const VariantEvaluation *BestBase = E.bestVariant(Technique::Baseline);
    const VariantEvaluation *Full = E.variant("full");
    bool Ok = Best && BestBase && Full;
    if (Ok)
      D.str(Best->Label).str(BestBase->Label);
    Why.clear();
    if (!Ok)
      Why = "missing variants";
    else if (!(Best->Slowdown < Full->Slowdown))
      Why = "best IPAS variant is not cheaper than full duplication";
    else if (!(Best->SocReductionPct > 0))
      Why = "best IPAS variant removes no SOCs";
    C.digestOp("table4", D.value(), Why.empty(), Why);
  }

private:
  PipelineConfig Cfg;
  std::unique_ptr<ipas::Workload> W;
  std::optional<WorkloadEvaluation> Eval;
};

//===----------------------------------------------------------------------===//
// train-grid
//===----------------------------------------------------------------------===//

class TrainGrid : public BenchWorkload {
public:
  explicit TrainGrid(const Options &O) : Cfg(pipelineConfig(O)) {
    Codes[0].Name = "IS";
    Codes[1].Name = "FFT";
  }

  unsigned setupRepeats() const override { return 3; }
  bool injectsDuringSetup() const override { return true; }

  /// Builds the IPAS and Baseline datasets of both codes (training
  /// campaign, features, labels), one code per thread.
  void setUp(Checks &C, SetupStats &S) override {
    Ledger PerCode[2];
    std::thread Other([&] { Codes[1].build(Cfg, PerCode[1]); });
    Codes[0].build(Cfg, PerCode[0]);
    Other.join();
    for (unsigned K = 0; K != 2; ++K) {
      Code &Cd = Codes[K];
      for (const auto &[Name, V] : PerCode[K].values())
        S.Layers.add(Name, V);
      const CampaignResult &Camp = Cd.A.Campaign;
      S.Fault.add(Cd.Name + ".training", Camp, Cfg.Backend, 1);
      S.Layers.add("setup.campaign_s", Camp.WallSeconds);
      std::string Why = inconsistency(Camp, Cfg.TrainSamples);
      uint64_t Data = datasetDigest(Cd.A);
      if (Why.empty() && Cd.DataDigest && Cd.DataDigest != Data)
        Why = "set-up is not deterministic: datasets differ between "
              "repeats";
      Cd.DataDigest = Data;
      C.digestOp(Cd.Name + ".training", campaignDigest(Camp), Why.empty(),
                 Why);
    }
  }

  void run(IterationStats &S) override {
    GridSearchConfig GC = Cfg.Grid;
    GC.Seed = Cfg.Seed ^ 0x62d5; // IpasPipeline::collectAndTrain's seed
    for (Code &Cd : Codes)
      for (unsigned T = 0; T != 2; ++T) {
        Technique Tech = T == 0 ? Technique::Ipas : Technique::Baseline;
        const Dataset &Data = T == 0 ? Cd.A.IpasData : Cd.A.BaselineData;
        {
          TimedSpan Span(S.Layers, "ml.grid_search_s");
          Cd.Ranked[T] = gridSearch(Data, GC);
        }
        TimedSpan Span(S.Layers, "ml.final_fit_s");
        Cd.Selected[T].clear();
        for (size_t K = 0; K < Cfg.TopN && K < Cd.Ranked[T].size(); ++K)
          Cd.Selected[T].push_back(
              Cd.P->selectInstructions(Tech, Cd.Ranked[T][K].Params, Cd.A));
      }
  }

  void check(Checks &C, IterationStats &) override {
    size_t Grid = size_t(Cfg.Grid.CSteps) * Cfg.Grid.GammaSteps;
    for (const Code &Cd : Codes)
      for (unsigned T = 0; T != 2; ++T) {
        std::string Tag = Cd.Name + (T == 0 ? ".ipas" : ".baseline");
        const std::vector<RankedConfig> &Ranked = Cd.Ranked[T];
        C.digestOp(Tag + ".grid", rankedDigest(Ranked),
                   Ranked.size() == Grid && rankedSorted(Ranked),
                   "ranking is short or out of F-score order");
        Digest D;
        for (const std::set<unsigned> &Ids : Cd.Selected[T]) {
          D.u64(Ids.size());
          for (unsigned Id : Ids)
            D.u64(Id);
        }
        C.digestOp(Tag + ".select", D.value(),
                   Cd.Selected[T].size() ==
                       std::min<size_t>(Cfg.TopN, Grid),
                   "wrong number of top-N selections");
      }
  }

private:
  struct Code {
    std::string Name;
    std::unique_ptr<ipas::Workload> W;
    std::unique_ptr<IpasPipeline> P;
    TrainingArtifacts A;
    uint64_t DataDigest = 0;
    std::vector<RankedConfig> Ranked[2];           ///< Ipas, Baseline.
    std::vector<std::set<unsigned>> Selected[2];   ///< Top-N id sets.

    void build(const PipelineConfig &Cfg, Ledger &L) {
      W = ipas::makeWorkload(Name);
      {
        TimedSpan T(L, "frontend.compile_s", "frontend.compiles");
        std::unique_ptr<Module> M = compileWorkload(*W);
        L.add("frontend.instructions",
              static_cast<double>(M->numInstructions()));
      }
      P = std::make_unique<IpasPipeline>(*W, Cfg);
      double T0 = nowSeconds();
      A = P->collectAndTrain(/*RunGridSearch=*/false);
      L.add("setup.analysis_s", nowSeconds() - T0 - A.Campaign.WallSeconds);
    }
  };

  static uint64_t datasetDigest(const TrainingArtifacts &A) {
    Digest D;
    for (const Dataset *Data : {&A.IpasData, &A.BaselineData}) {
      D.u64(Data->Y.size());
      for (size_t I = 0; I != Data->Y.size(); ++I) {
        D.u64(static_cast<uint64_t>(Data->Y[I]));
        for (double X : Data->X[I])
          D.f64(X);
      }
    }
    return D.value();
  }

  PipelineConfig Cfg;
  Code Codes[2];
};

//===----------------------------------------------------------------------===//
// adhoc-vm
//===----------------------------------------------------------------------===//

/// A fully duplicated build of one MiniC program with its provably-benign
/// site map.
struct Build {
  std::unique_ptr<Module> M;
  std::unique_ptr<ModuleLayout> Layout;
  std::vector<bool> Benign;
};

/// Parses and lowers \p Source the way ipas-cc does (simplifycfg,
/// mem2reg, renumber); null on a frontend error.
std::unique_ptr<Module> compileProgram(const std::string &Source,
                                       const std::string &Name, Ledger &L) {
  TimedSpan T(L, "frontend.compile_s", "frontend.compiles");
  Diagnostics Diags;
  std::unique_ptr<Module> M = compileMiniC(Source, Name, Diags);
  if (!M || Diags.hasErrors())
    return nullptr;
  removeUnreachableBlocks(*M);
  promoteAllocasToRegisters(*M);
  M->renumber();
  L.add("frontend.instructions", static_cast<double>(M->numInstructions()));
  return M;
}

/// One campaign of the adhoc-vm loop and everything check() needs.
struct AdhocCampaign {
  std::string Name;
  const Build *B = nullptr;
  CampaignResult Result;
  std::vector<obs::FunctionMeta> Metas; ///< Incremental campaigns only.
  size_t Reused = 0;
  std::vector<char> NotExecuted; ///< Pruned or reused rows.
  std::string StoreError;        ///< Write or read failure, if any.
  obs::RecordStore Record;       ///< As read back.
  obs::SessionStore Session;     ///< As read back.
  std::string SessionPath;
};

class AdhocVm : public BenchWorkload {
public:
  explicit AdhocVm(const Options &O) : O(O) {}

  unsigned setupRepeats() const override { return 15; }

  /// Loads the frozen programs and generates the seeded ones.
  void setUp(Checks &, SetupStats &S) override {
    Programs.clear();
    size_t Scale = O.Tiny ? 100 : 1;
    auto Frozen = [&](const char *File, const char *Entry,
                      std::vector<RtValue> Args, size_t Runs,
                      const char *Edit) {
      Program P;
      P.Name = std::filesystem::path(File).stem().string();
      P.Source = readFile(File);
      P.Entry = Entry;
      P.Args = std::move(Args);
      P.Runs = Runs / Scale;
      if (Edit)
        P.EditSource = readFile(Edit);
      Programs.push_back(std::move(P));
    };
    Frozen("residual.mc", "f", {RtValue::fromI64(48)}, 20000,
           "residual_edit.mc");
    Frozen("genfuzz.mc", "run", {RtValue::fromI64(5), RtValue::fromI64(9)},
           20000, "genfuzz_edit.mc");
    Frozen("callchain.mc", "f", {RtValue::fromI64(32)}, 15000, nullptr);

    // Seeded programs, as ipas-fuzz generates them: the first four of the
    // candidates whose unprotected clean run takes [MinGenSteps,
    // MaxGenSteps] steps. Every seed examines at least the same number of
    // candidates, so set-up work hardly depends on the seed either.
    const unsigned NumGenerated = 4, MinCandidates = 48;
    const uint64_t MinGenSteps = 600, MaxGenSteps = 1200;
    for (uint64_t Attempt = 0;
         Attempt < MinCandidates || Programs.size() < 3 + NumGenerated;
         ++Attempt) {
      testing::GenConfig G;
      G.Seed = splitmix64(O.Seed * 0x100 + Attempt);
      Program P;
      P.Name = "gen" + std::to_string(Programs.size() - 3);
      P.Source = testing::generateProgram(G).Source;
      P.Entry = testing::GenEntryName;
      P.Args = {RtValue::fromI64(static_cast<int64_t>(G.Seed % 17) + 3),
                RtValue::fromI64(static_cast<int64_t>(G.Seed % 23) - 7)};
      P.Runs = 7500 / Scale;
      std::unique_ptr<Module> M = compileProgram(P.Source, P.Name, S.Layers);
      if (!M || !M->getFunction(P.Entry))
        continue;
      ModuleLayout Layout(*M);
      FunctionHarness H(P.Entry, P.Args);
      ExecutionRecord R = H.execute(Layout, nullptr, MaxGenSteps);
      // A correct clean run of similar length for every seed, so the
      // seed varies the programs but hardly the work.
      if (R.Status != RunStatus::Finished || !R.OutputValid ||
          R.Steps < MinGenSteps || R.Steps > MaxGenSteps ||
          Programs.size() == 3 + NumGenerated)
        continue;
      Programs.push_back(std::move(P));
    }
    // The frozen programs compile in set-up too, so a frontend
    // regression shows in setup_s on every workload alike.
    for (size_t K = 0; K != 3; ++K) {
      compileProgram(Programs[K].Source, Programs[K].Name, S.Layers);
      if (!Programs[K].EditSource.empty())
        compileProgram(Programs[K].EditSource, Programs[K].Name, S.Layers);
    }
  }

  void run(IterationStats &S) override {
    Builds.clear();
    Campaigns.clear();
    for (size_t K = 0; K != Programs.size(); ++K) {
      const Program &P = Programs[K];
      uint64_t Seed = splitmix64(O.Seed ^ (0xadc0 + K));
      if (!buildProgram(P.Source, P.Name, S.Layers)) {
        BuildFailures.push_back(P.Name);
        continue;
      }
      AdhocCampaign &First =
          campaign(P, P.Name, P.Source, Builds.back(), Seed,
                   !P.EditSource.empty(), nullptr, S);
      if (P.EditSource.empty() || !First.StoreError.empty())
        continue;
      // Re-campaign the edited program against the store just read back.
      if (!buildProgram(P.EditSource, P.Name + "_edit", S.Layers)) {
        BuildFailures.push_back(P.Name + "_edit");
        continue;
      }
      campaign(P, P.Name + "_edit", P.EditSource, Builds.back(), Seed, true,
               &First.Record, S);
    }
  }

  void check(Checks &C, IterationStats &) override {
    for (const std::string &Name : BuildFailures)
      C.op(Name, false, "does not compile");
    BuildFailures.clear();
    for (const AdhocCampaign &Camp : Campaigns) {
      const Program &P = programFor(Camp.Name);
      std::string Why = inconsistency(Camp.Result, P.Runs);
      if (Why.empty())
        Why = replayOnInterpreter(P, Camp);
      C.digestOp(Camp.Name, campaignDigest(Camp.Result), Why.empty(), Why);
      Why = roundTripError(Camp);
      C.op(Camp.Name + ".store", Why.empty(), Why);
    }
  }

private:
  struct Program {
    std::string Name, Source, EditSource, Entry;
    std::vector<RtValue> Args;
    size_t Runs = 0;
  };

  std::string readFile(const std::string &File) const {
    std::ifstream In(O.ProgramsDir + "/" + File);
    std::stringstream SS;
    SS << In.rdbuf();
    return SS.str();
  }

  const Program &programFor(const std::string &CampaignName) const {
    for (const Program &P : Programs)
      if (CampaignName == P.Name || CampaignName == P.Name + "_edit")
        return P;
    return Programs.front();
  }

  /// Compiles, fully duplicates and analyses one program into Builds.
  bool buildProgram(const std::string &Source, const std::string &Name,
                    Ledger &L) {
    Build B;
    B.M = compileProgram(Source, Name, L);
    if (!B.M)
      return false;
    {
      TimedSpan T(L, "transform.protect_s", "transform.protects");
      DuplicationStats Stats = duplicateAllInstructions(*B.M);
      B.M->renumber();
      L.add("transform.duplicated",
            static_cast<double>(Stats.DuplicatedInstructions));
    }
    B.Layout = std::make_unique<ModuleLayout>(*B.M);
    {
      TimedSpan T(L, "analysis.soc_prop_s");
      CallGraph CG(*B.M);
      ModuleSummaries Summaries(*B.M, CG);
      SocPropagation Soc(*B.M, Summaries);
      B.Benign = Soc.provablyBenign();
    }
    L.add("analysis.benign_sites",
          static_cast<double>(std::count(B.Benign.begin(), B.Benign.end(),
                                         true)));
    Builds.push_back(std::move(B));
    return true;
  }

  /// Runs one campaign (incremental when \p Incremental, against \p Prior
  /// when given), then writes its .iprec/.ipses and reads both back.
  AdhocCampaign &campaign(const Program &P, const std::string &Name,
                          const std::string &Source, const Build &B,
                          uint64_t Seed, bool Incremental,
                          const obs::RecordStore *Prior, IterationStats &S) {
    Campaigns.emplace_back();
    AdhocCampaign &Camp = Campaigns.back();
    Camp.Name = Name;
    Camp.B = &B;
    FunctionHarness Harness(P.Entry, P.Args);
    CampaignConfig CC;
    CC.NumRuns = P.Runs;
    CC.Seed = Seed;
    // One worker: at 4 the ~6 µs runs serialise on the harness's context
    // pool lock, and wall time then follows how fast idle cores wake
    // (README.md, "Baseline").
    CC.NumThreads = 1;
    CC.Backend = O.AdhocBackend;
    CC.ProvablyBenign = &B.Benign;
    CC.Label = Name;
    if (Incremental) {
      IncrementalConfig IC;
      IC.Base = CC;
      IC.Prior = Prior;
      IncrementalResult IR =
          runIncrementalCampaign(Harness, *B.Layout, *B.M, IC);
      Camp.Result = std::move(IR.Campaign);
      Camp.Metas = std::move(IR.FunctionMetas);
      Camp.Reused = IR.ReusedRuns;
    } else {
      Camp.Result = runCampaign(Harness, *B.Layout, CC);
    }
    markNotExecuted(Camp);
    S.Fault.add(Name, Camp.Result, CC.Backend, CC.NumThreads, Camp.Reused,
                &Camp.NotExecuted);

    std::vector<unsigned> StepTrace;
    {
      TimedSpan T(S.Layers, "fault.store_trace_s");
      StepTrace = Harness.traceValueSteps(*B.Layout);
    }
    FeatureExtractor Extractor;
    std::vector<double> Flat;
    {
      TimedSpan T(S.Layers, "analysis.features_s");
      for (const std::vector<double> &Row : Extractor.extractModuleRows(*B.M))
        Flat.insert(Flat.end(), Row.begin(), Row.end());
    }
    std::string RecPath = O.WorkDir + "/" + Name + ".iprec";
    Camp.SessionPath = O.WorkDir + "/" + Name + ".ipses";
    std::string Err;
    {
      TimedSpan T(S.Layers, "obs.write_s");
      RecordBuildInputs In;
      In.M = B.M.get();
      In.Result = &Camp.Result;
      In.EntryFunction = P.Entry;
      In.Label = Name;
      In.Seed = Seed;
      In.SourceText = Source;
      In.ValueStepTrace = &StepTrace;
      In.NumFeatures = Extractor.numFeatures();
      In.Features = &Flat;
      if (!Camp.Metas.empty())
        In.FunctionMetas = &Camp.Metas;
      SessionBuildInputs SIn;
      SIn.M = B.M.get();
      SIn.Result = &Camp.Result;
      SIn.Tool = "e2ebench";
      SIn.EntryFunction = P.Entry;
      SIn.Label = Name;
      SIn.Seed = Seed;
      SIn.Threads = CC.NumThreads;
      SIn.Backend = CC.Backend;
      SIn.Pruning = true;
      SIn.Incremental = Prior != nullptr;
      obs::SessionStore Sess = buildSessionStore(SIn);
      if (!writeCampaignRecord(buildRecordStore(In), RecPath, &Err) ||
          !addSessionArtifact(Sess, obs::SessionArtifactRecord, RecPath,
                              &Err) ||
          !writeSessionManifest(Sess, Camp.SessionPath, &Err))
        Camp.StoreError = "write: " + Err;
    }
    if (!Camp.StoreError.empty())
      return Camp;
    S.Layers.add("obs.bytes_written",
                 static_cast<double>(std::filesystem::file_size(RecPath) +
                                     std::filesystem::file_size(
                                         Camp.SessionPath)));
    {
      TimedSpan T(S.Layers, "obs.read_s");
      if (!obs::readRecordStore(Camp.Record, RecPath, &Err) ||
          !obs::readSessionStore(Camp.Session, Camp.SessionPath, &Err))
        Camp.StoreError = "read: " + Err;
    }
    S.Layers.add("obs.bytes_read",
                 static_cast<double>(std::filesystem::file_size(RecPath) +
                                     std::filesystem::file_size(
                                         Camp.SessionPath)));
    return Camp;
  }

  /// Flags pruned rows (benign target) and reused rows. Rows are
  /// function-major; a function's reused rows are the first ReusedRuns
  /// unpruned rows of its block, since pruned rows inside the reused
  /// prefix keep their place but are not counted as reused.
  static void markNotExecuted(AdhocCampaign &Camp) {
    const CampaignResult &R = Camp.Result;
    Camp.NotExecuted.assign(R.Records.size(), 0);
    for (size_t I = 0; I != R.Records.size(); ++I) {
      unsigned Id = R.Records[I].InstructionId;
      if (Id < Camp.B->Benign.size() && Camp.B->Benign[Id])
        Camp.NotExecuted[I] = 1;
    }
    size_t Row = 0;
    for (const obs::FunctionMeta &FM : Camp.Metas) {
      uint64_t Marked = 0;
      for (size_t I = Row; I < R.Records.size() && I < Row + FM.PlannedRuns &&
                           Marked != FM.ReusedRuns;
           ++I)
        if (!Camp.NotExecuted[I]) {
          Camp.NotExecuted[I] = 1;
          ++Marked;
        }
      Row += FM.PlannedRuns;
    }
  }

  /// The independent oracle: replays about 40 evenly spaced executed
  /// injections through an interpreter-backed harness, from the record's
  /// own (TargetValueStep, BitIndex). The run must hit the recorded
  /// instruction and classify the same. The rows flagged as not executed
  /// must first add up to the campaign's pruned and reused counts.
  /// Returns "" when all agree.
  std::string replayOnInterpreter(const Program &P,
                                  const AdhocCampaign &Camp) const {
    size_t NumExecuted =
        std::count(Camp.NotExecuted.begin(), Camp.NotExecuted.end(), 0);
    if (NumExecuted != Camp.Result.Records.size() - Camp.Result.PrunedRuns -
                           Camp.Reused)
      return "pruned and reused rows do not match the campaign's counts";
    const size_t ReplayEvery = std::max<size_t>(1, NumExecuted / 40);
    const ModuleLayout &Layout = *Camp.B->Layout;
    FunctionHarness Harness(P.Entry, P.Args); // interpreter by default
    ExecutionRecord Clean = Harness.execute(Layout, nullptr, UINT64_MAX);
    if (Clean.Status != RunStatus::Finished || !Clean.OutputValid)
      return "interpreter clean run failed";
    if (Clean.Steps != Camp.Result.CleanSteps)
      return "clean step count differs from the interpreter's";
    uint64_t Budget = std::max<uint64_t>(
        static_cast<uint64_t>(CampaignConfig().HangFactor *
                              static_cast<double>(Clean.Steps)),
        Clean.Steps + 1000);
    size_t Executed = 0;
    for (size_t I = 0; I != Camp.Result.Records.size(); ++I) {
      if (Camp.NotExecuted[I] || Executed++ % ReplayEvery)
        continue;
      const InjectionRecord &Rec = Camp.Result.Records[I];
      FaultPlan Plan;
      Plan.TargetValueStep = Rec.TargetValueStep;
      Plan.BitDraw = Rec.BitIndex;
      ExecutionRecord R = Harness.execute(Layout, &Plan, Budget);
      if (!R.FaultInjected || R.FaultedInstructionId != Rec.InstructionId)
        return "replay of row " + std::to_string(I) +
               " hit another instruction";
      if (classifyOutcome(R) != Rec.Result)
        return "replay of row " + std::to_string(I) + " classifies as " +
               outcomeName(classifyOutcome(R)) + ", recorded " +
               outcomeName(Rec.Result);
    }
    return {};
  }

  /// The stores read back must say what the campaign produced.
  static std::string roundTripError(const AdhocCampaign &Camp) {
    if (!Camp.StoreError.empty())
      return Camp.StoreError;
    const CampaignResult &R = Camp.Result;
    const obs::RecordStore &Rec = Camp.Record;
    if (Rec.Rows.size() != R.Records.size())
      return "record store row count differs";
    for (size_t I = 0; I != R.Records.size(); ++I) {
      const InjectionRecord &A = R.Records[I];
      const obs::InjectionRow &B = Rec.Rows[I];
      if (A.InstructionId != B.InstructionId || A.BitIndex != B.BitIndex ||
          A.TargetValueStep != B.TargetValueStep ||
          static_cast<uint8_t>(A.Result) != B.Outcome)
        return "record store row " + std::to_string(I) + " differs";
    }
    const obs::SessionStore &Sess = Camp.Session;
    // Stores keep totals up to the highest outcome seen; absent means 0.
    auto Total = [](const std::vector<uint64_t> &T, size_t O) {
      return O < T.size() ? T[O] : 0;
    };
    for (size_t O = 0; O != NumOutcomes; ++O)
      if (Total(Rec.OutcomeTotals, O) != R.Counts[O] ||
          Total(Sess.OutcomeTotals, O) != R.Counts[O])
        return "stored outcome totals differ";
    if (Sess.Runs != R.Records.size() || Sess.VmRuns != R.VmRuns ||
        Sess.InterpRuns != R.InterpRuns)
      return "session run counts differ";
    std::string Dir =
        std::filesystem::path(Camp.SessionPath).parent_path().string();
    for (const obs::SessionArtifact &A : Sess.Artifacts)
      if (obs::verifySessionArtifact(A, Dir) != obs::ArtifactState::Ok)
        return "session artifact " + A.Path + " does not verify";
    return {};
  }

  const Options &O;
  std::vector<Program> Programs;
  // Deques: campaigns keep pointers to their build, and an incremental
  // campaign reads its predecessor's store, while both keep growing.
  std::deque<Build> Builds;
  std::deque<AdhocCampaign> Campaigns;
  std::vector<std::string> BuildFailures;
};

} // namespace

std::unique_ptr<BenchWorkload> makeBenchWorkload(const Options &O) {
  if (O.Workload == "workflow-is")
    return std::make_unique<WorkflowIs>(O);
  if (O.Workload == "train-grid")
    return std::make_unique<TrainGrid>(O);
  if (O.Workload == "adhoc-vm")
    return std::make_unique<AdhocVm>(O);
  return nullptr;
}

} // namespace bench
