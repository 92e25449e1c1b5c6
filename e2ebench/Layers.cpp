//===- e2ebench/Layers.cpp - Per-layer metrics of the traced iteration -----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three sources feed the per-layer metrics: the spans the benchmark
/// records around its own calls into each module (the Ledger), the
/// PhaseSpans the program already emits (read back from the JSONL trace),
/// and MetricsRegistry counters (diffed around the traced iteration).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Json.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <fstream>

namespace bench {

namespace {

const char *const RegistryCounters[] = {
    "interp.runs",         "interp.steps",          "interp.exec_micros",
    "ml.grid.configs",     "ml.svm.trainings",      "ml.svm.iterations",
    "vm.fallback.compile", "vm.fallback.observer",  "vm.fallback.trace",
    "vm.fallback.other",   "vm.fallback.profile_context",
};

/// The program's own PhaseSpans, reported by self time.
const char *const CoreSpans[] = {
    "pipeline",           "pipeline.setup",       "pipeline.training",
    "training.campaign",  "training.features",    "training.labeling",
    "training.grid_search", "pipeline.evaluation", "pipeline.variant",
    "pipeline.protect",   "grid_search",          "campaign",
    "campaign.incremental",
};

double percentile(std::vector<uint32_t> V, double Q) {
  if (V.empty())
    return 0;
  size_t K = static_cast<size_t>(Q * static_cast<double>(V.size() - 1));
  std::nth_element(V.begin(), V.begin() + static_cast<long>(K), V.end());
  return V[K];
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

} // namespace

std::map<std::string, uint64_t> registrySnapshot() {
  auto &Reg = ipas::obs::MetricsRegistry::global();
  std::map<std::string, uint64_t> Snap;
  for (const char *Name : RegistryCounters)
    Snap[Name] = Reg.counter(Name).value();
  return Snap;
}

std::map<std::string, double>
spanSelfSeconds(const std::string &TracePath,
                std::map<std::string, double> *TotalSeconds) {
  struct SpanRec {
    std::string Name;
    int64_t Tid;
    uint64_t Start, End;
    uint64_t ChildUs = 0;
  };
  std::vector<SpanRec> Spans;
  std::ifstream In(TracePath);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.find("\"type\":\"span\"") == std::string::npos)
      continue;
    std::optional<ipas::obs::JsonValue> V = ipas::obs::parseJson(Line);
    if (!V)
      continue;
    const ipas::obs::JsonValue *Name = V->get("name"), *Tid = V->get("tid"),
                               *Start = V->get("start_us"),
                               *End = V->get("end_us");
    if (!Name || !Tid || !Start || !End)
      continue;
    Spans.push_back({Name->asString(), Tid->asI64(), Start->asU64(),
                     End->asU64()});
  }
  // Spans nest per thread (PhaseSpan enforces LIFO), so a stack over
  // start-ordered spans finds each span's parent.
  std::sort(Spans.begin(), Spans.end(),
            [](const SpanRec &A, const SpanRec &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.Start != B.Start)
                return A.Start < B.Start;
              return A.End > B.End;
            });
  std::vector<size_t> Stack;
  for (size_t I = 0; I != Spans.size(); ++I) {
    while (!Stack.empty() && (Spans[Stack.back()].Tid != Spans[I].Tid ||
                              Spans[Stack.back()].End <= Spans[I].Start))
      Stack.pop_back();
    if (!Stack.empty())
      Spans[Stack.back()].ChildUs += Spans[I].End - Spans[I].Start;
    Stack.push_back(I);
  }
  std::map<std::string, double> Self;
  for (const SpanRec &S : Spans) {
    double Dur = static_cast<double>(S.End - S.Start) * 1e-6;
    Self[S.Name] += Dur - static_cast<double>(S.ChildUs) * 1e-6;
    if (TotalSeconds)
      (*TotalSeconds)[S.Name] += Dur;
  }
  return Self;
}

std::vector<Metric>
layerMetrics(const IterationStats &S,
             const SetupStats &Setup,
             const std::map<std::string, uint64_t> &Before,
             const std::map<std::string, uint64_t> &After,
             const std::map<std::string, double> &SpanSelf,
             const std::map<std::string, double> &SpanTotal,
             double UntracedWall, double CpuUtil) {
  auto Delta = [&](const char *Name) {
    return static_cast<double>(After.at(Name) - Before.at(Name));
  };
  auto Span = [](const std::map<std::string, double> &M, const char *Name) {
    auto It = M.find(Name);
    return It == M.end() ? 0.0 : It->second;
  };
  const Ledger &L = S.Layers;
  const CampaignTally &F = S.Fault;
  double Executed = static_cast<double>(F.executed());

  std::vector<Metric> Out;
  auto Add = [&](std::string Name, double V, const char *Unit) {
    Out.push_back({std::move(Name), V, Unit});
  };

  // frontend: every compile the benchmark makes itself, in set-up and in
  // the traced iteration.
  Add("frontend.compile_s",
      Setup.Layers.get("frontend.compile_s") + L.get("frontend.compile_s"),
      "s");
  Add("frontend.compiles",
      Setup.Layers.get("frontend.compiles") + L.get("frontend.compiles"),
      "count");
  Add("frontend.instructions",
      Setup.Layers.get("frontend.instructions") +
          L.get("frontend.instructions"),
      "count");

  Add("transform.protect_s", L.get("transform.protect_s"), "s");
  Add("transform.protects", L.get("transform.protects"), "count");
  Add("transform.duplicated", L.get("transform.duplicated"), "count");

  double Features =
      L.get("analysis.features_s") + Span(SpanTotal, "training.features");
  Add("analysis.features_s", Features, "s");
  Add("analysis.soc_prop_s", L.get("analysis.soc_prop_s"), "s");
  Add("analysis.benign_sites", L.get("analysis.benign_sites"), "count");

  Add("fault.campaign_s", F.WallSeconds, "s");
  Add("fault.campaigns", static_cast<double>(F.Campaigns), "count");
  Add("fault.injections", static_cast<double>(F.Injections), "count");
  Add("fault.executed", Executed, "count");
  Add("fault.pruned", static_cast<double>(F.Pruned), "count");
  Add("fault.reused", static_cast<double>(F.Reused), "count");
  Add("fault.reuse_ratio",
      ratio(static_cast<double>(F.Reused), static_cast<double>(F.Injections)),
      "ratio");
  Add("fault.exec_busy_s", F.BusySeconds, "s");
  Add("fault.overhead_s", F.WallSeconds * F.RequestedThreads - F.BusySeconds,
      "s");
  Add("fault.run_us.p50", percentile(F.LatencyUs, 0.50), "us");
  Add("fault.run_us.p99", percentile(F.LatencyUs, 0.99), "us");
  Add("fault.clean_steps", static_cast<double>(F.CleanSteps), "count");
  Add("fault.store_trace_s", L.get("fault.store_trace_s"), "s");
  Add("fault.requested_threads", F.RequestedThreads, "count");
  Add("fault.effective_threads", ratio(F.BusySeconds, F.WallSeconds),
      "count");
  Add("fault.requested_vm_share",
      ratio(static_cast<double>(F.RequestedVmRuns), Executed), "ratio");
  Add("fault.vm_share",
      ratio(static_cast<double>(F.VmRuns),
            static_cast<double>(F.VmRuns + F.InterpRuns)),
      "ratio");
  Add("fault.unsplit_runs", static_cast<double>(F.unsplit()), "count");

  Add("workloads.clean_run_s", Setup.Layers.get("workloads.clean_run_s"),
      "s");

  Add("interp.runs", Delta("interp.runs"), "count");
  Add("interp.steps", Delta("interp.steps"), "count");
  Add("interp.exec_s", Delta("interp.exec_micros") * 1e-6, "s");

  Add("vm.runs", static_cast<double>(F.VmRuns), "count");
  Add("vm.fallbacks",
      Delta("vm.fallback.compile") + Delta("vm.fallback.observer") +
          Delta("vm.fallback.trace") + Delta("vm.fallback.other") +
          Delta("vm.fallback.profile_context"),
      "count");

  double Grid =
      L.get("ml.grid_search_s") + Span(SpanTotal, "training.grid_search");
  // On workflow-is the top-N fits run inside pipeline.protect, which also
  // recompiles and duplicates (under 1% of the span).
  double FinalFit =
      L.get("ml.final_fit_s") + Span(SpanTotal, "pipeline.protect");
  Add("ml.grid_search_s", Grid, "s");
  Add("ml.grid_configs", Delta("ml.grid.configs"), "count");
  Add("ml.svm.trainings", Delta("ml.svm.trainings"), "count");
  Add("ml.svm.iterations", Delta("ml.svm.iterations"), "count");
  Add("ml.iterations_per_training",
      ratio(Delta("ml.svm.iterations"), Delta("ml.svm.trainings")), "count");
  Add("ml.final_fit_s", FinalFit, "s");

  Add("obs.write_s", L.get("obs.write_s"), "s");
  Add("obs.bytes_written", L.get("obs.bytes_written"), "B");
  Add("obs.read_s", L.get("obs.read_s"), "s");
  Add("obs.bytes_read", L.get("obs.bytes_read"), "B");

  for (const char *Name : CoreSpans)
    Add(std::string("core.phase.") + Name + "_s", Span(SpanSelf, Name), "s");

  Add("process.cpu_util", CpuUtil, "cores");

  Add("setup.campaign_s", Setup.Layers.get("setup.campaign_s"), "s");
  Add("setup.analysis_s", Setup.Layers.get("setup.analysis_s"), "s");

  // Self time of each layer inside the traced iteration's timed section,
  // and its share of that section. core is the remainder: orchestration
  // in IpasPipeline and the benchmark's own glue.
  const std::pair<const char *, double> Layers[] = {
      {"frontend", L.get("frontend.compile_s")},
      {"transform", L.get("transform.protect_s")},
      {"analysis", Features + L.get("analysis.soc_prop_s")},
      {"fault", F.WallSeconds + L.get("fault.store_trace_s")},
      {"ml", Grid + FinalFit + Span(SpanTotal, "training.labeling")},
      {"obs", L.get("obs.write_s") + L.get("obs.read_s")},
  };
  double Accounted = 0;
  for (const auto &[Name, Secs] : Layers)
    Accounted += Secs;
  for (const auto &[Name, Secs] : Layers) {
    Add(std::string("self.") + Name + "_s", Secs, "s");
    Add(std::string("share.") + Name, ratio(Secs, S.WallSeconds), "ratio");
  }
  Add("self.core_s", S.WallSeconds - Accounted, "s");
  Add("share.core", ratio(S.WallSeconds - Accounted, S.WallSeconds),
      "ratio");

  Add("trace.wall_s", S.WallSeconds, "s");
  Add("trace.untraced_wall_s", UntracedWall, "s");
  Add("trace.overhead_s", S.WallSeconds - UntracedWall, "s");
  return Out;
}

} // namespace bench
