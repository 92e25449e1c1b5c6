//===- core/ResultsCache.cpp --------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/ResultsCache.h"

#include "obs/BinCodec.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <sys/stat.h>

using namespace ipas;

uint64_t ipas::pipelineConfigHash(const PipelineConfig &Cfg) {
  // FNV-1a over the fields that change evaluation results.
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    for (int B = 0; B != 8; ++B) {
      H ^= (V >> (B * 8)) & 0xff;
      H *= 1099511628211ull;
    }
  };
  Mix(static_cast<uint64_t>(Cfg.InputLevel));
  Mix(Cfg.TrainSamples);
  Mix(Cfg.EvalRuns);
  Mix(static_cast<uint64_t>(Cfg.HangFactor * 1000));
  Mix(Cfg.Grid.CSteps);
  Mix(Cfg.Grid.GammaSteps);
  Mix(Cfg.Grid.Folds);
  Mix(Cfg.Grid.MaxIterations);
  Mix(static_cast<uint64_t>(Cfg.Grid.CMin * 1000));
  Mix(static_cast<uint64_t>(Cfg.Grid.CMax));
  Mix(static_cast<uint64_t>(Cfg.Grid.GammaMin * 1e9));
  Mix(static_cast<uint64_t>(Cfg.Grid.GammaMax * 1000));
  Mix(Cfg.TopN);
  Mix(Cfg.Seed);
  return H;
}

static void writeCampaign(std::ostream &OS, const char *Tag,
                          const CampaignResult &C) {
  OS << Tag << " " << C.CleanSteps << " " << C.CleanValueSteps << " "
     << C.CleanCriticalPathCycles;
  for (size_t K : C.Counts)
    OS << " " << K;
  OS << "\n";
}

static bool readCampaign(std::istream &IS, CampaignResult &C) {
  if (!(IS >> C.CleanSteps >> C.CleanValueSteps >> C.CleanCriticalPathCycles))
    return false;
  for (size_t &K : C.Counts)
    if (!(IS >> K))
      return false;
  return true;
}

static void writeConfig(std::ostream &OS, const RankedConfig &RC) {
  OS.precision(17);
  OS << RC.Params.C << " " << RC.Params.Gamma << " " << RC.FScore << " "
     << RC.Accuracies.Accuracy1 << " " << RC.Accuracies.Accuracy2;
}

static bool readConfig(std::istream &IS, RankedConfig &RC) {
  return static_cast<bool>(IS >> RC.Params.C >> RC.Params.Gamma >>
                           RC.FScore >> RC.Accuracies.Accuracy1 >>
                           RC.Accuracies.Accuracy2);
}

std::string ipas::serializeEvaluation(const WorkloadEvaluation &WE) {
  std::ostringstream OS;
  OS.precision(17);
  OS << "ipas-cache-v1\n";
  OS << "workload " << WE.WorkloadName << "\n";
  OS << "static_instructions " << WE.StaticInstructions << "\n";
  OS << "lines_of_code " << WE.LinesOfCode << "\n";
  OS << "train_seconds " << WE.Training.TrainSeconds << "\n";
  OS << "duplicate_seconds " << WE.DuplicateSeconds << "\n";
  writeCampaign(OS, "training_campaign", WE.Training.Campaign);
  for (const RankedConfig &RC : WE.Training.IpasConfigs) {
    OS << "ipas_config ";
    writeConfig(OS, RC);
    OS << "\n";
  }
  for (const RankedConfig &RC : WE.Training.BaselineConfigs) {
    OS << "baseline_config ";
    writeConfig(OS, RC);
    OS << "\n";
  }
  for (const VariantEvaluation &V : WE.Variants) {
    OS << "variant " << V.Label << " "
       << static_cast<int>(V.Tech) << " ";
    writeConfig(OS, V.Config);
    OS << " " << V.Dup.TotalInstructions << " "
       << V.Dup.EligibleInstructions << " " << V.Dup.SelectedInstructions
       << " " << V.Dup.DuplicatedInstructions << " "
       << V.Dup.ChecksInserted << " " << V.Slowdown << " "
       << V.SocReductionPct << " ";
    writeCampaign(OS, "campaign", V.Campaign);
  }
  OS << "end\n";
  return OS.str();
}

std::optional<WorkloadEvaluation>
ipas::deserializeEvaluation(const std::string &Text) {
  std::istringstream IS(Text);
  std::string Tok;
  if (!(IS >> Tok) || Tok != "ipas-cache-v1")
    return std::nullopt;
  WorkloadEvaluation WE;
  while (IS >> Tok) {
    if (Tok == "end")
      return WE;
    if (Tok == "workload") {
      if (!(IS >> WE.WorkloadName))
        return std::nullopt;
    } else if (Tok == "static_instructions") {
      if (!(IS >> WE.StaticInstructions))
        return std::nullopt;
    } else if (Tok == "lines_of_code") {
      if (!(IS >> WE.LinesOfCode))
        return std::nullopt;
    } else if (Tok == "train_seconds") {
      if (!(IS >> WE.Training.TrainSeconds))
        return std::nullopt;
    } else if (Tok == "duplicate_seconds") {
      if (!(IS >> WE.DuplicateSeconds))
        return std::nullopt;
    } else if (Tok == "training_campaign") {
      if (!readCampaign(IS, WE.Training.Campaign))
        return std::nullopt;
    } else if (Tok == "ipas_config") {
      RankedConfig RC;
      if (!readConfig(IS, RC))
        return std::nullopt;
      WE.Training.IpasConfigs.push_back(RC);
    } else if (Tok == "baseline_config") {
      RankedConfig RC;
      if (!readConfig(IS, RC))
        return std::nullopt;
      WE.Training.BaselineConfigs.push_back(RC);
    } else if (Tok == "variant") {
      VariantEvaluation V;
      int Tech = 0;
      if (!(IS >> V.Label >> Tech) || !readConfig(IS, V.Config))
        return std::nullopt;
      V.Tech = static_cast<Technique>(Tech);
      std::string CampaignTag;
      if (!(IS >> V.Dup.TotalInstructions >> V.Dup.EligibleInstructions >>
            V.Dup.SelectedInstructions >> V.Dup.DuplicatedInstructions >>
            V.Dup.ChecksInserted >> V.Slowdown >> V.SocReductionPct >>
            CampaignTag) ||
          CampaignTag != "campaign" || !readCampaign(IS, V.Campaign))
        return std::nullopt;
      WE.Variants.push_back(std::move(V));
    } else {
      return std::nullopt; // unknown record
    }
  }
  return std::nullopt; // missing "end"
}

static std::string cacheDir() {
  if (const char *Dir = std::getenv("IPAS_CACHE_DIR"))
    return Dir;
  return ".ipas-cache";
}

static bool cacheDisabled() {
  const char *V = std::getenv("IPAS_NO_CACHE");
  return V && V[0] == '1';
}

static std::string cachePath(const std::string &WorkloadName,
                             const PipelineConfig &Cfg) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(pipelineConfigHash(Cfg)));
  return cacheDir() + "/" + WorkloadName + "-" + Buf + ".txt";
}

std::optional<WorkloadEvaluation>
ipas::loadCachedEvaluation(const std::string &WorkloadName,
                           const PipelineConfig &Cfg) {
  if (cacheDisabled())
    return std::nullopt;
  std::string Text;
  if (!obs::readFile(cachePath(WorkloadName, Cfg), Text))
    return std::nullopt;
  return deserializeEvaluation(Text);
}

void ipas::storeCachedEvaluation(const WorkloadEvaluation &WE,
                                 const PipelineConfig &Cfg) {
  if (cacheDisabled())
    return;
  ::mkdir(cacheDir().c_str(), 0755); // best effort
  obs::writeFile(cachePath(WE.WorkloadName, Cfg), serializeEvaluation(WE));
}

WorkloadEvaluation ipas::evaluateWorkloadCached(const Workload &W,
                                                const PipelineConfig &Cfg) {
  auto &Reg = obs::MetricsRegistry::global();
  if (auto Cached = loadCachedEvaluation(W.name(), Cfg)) {
    Reg.counter("cache.hits").inc();
    obs::TraceSink::event("cache.hit",
                          obs::AttrSet().add("workload", W.name()));
    return *Cached;
  }
  Reg.counter("cache.misses").inc();
  obs::TraceSink::event("cache.miss",
                        obs::AttrSet().add("workload", W.name()));
  IpasPipeline Pipeline(W, Cfg);
  WorkloadEvaluation WE = Pipeline.run();
  storeCachedEvaluation(WE, Cfg);
  Reg.counter("cache.stores").inc();
  return WE;
}
