//===- fault/Incremental.cpp ----------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/Incremental.h"

#include "analysis/CallGraph.h"
#include "analysis/FunctionSummary.h"
#include "interp/CostProfiler.h"
#include "ir/Module.h"
#include "obs/BinCodec.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Parallel.h"

#include <algorithm>
#include <atomic>

using namespace ipas;

const char *ipas::invalidationReasonName(InvalidationReason R) {
  switch (R) {
  case InvalidationReason::Fresh:
    return "fresh";
  case InvalidationReason::Reused:
    return "reused";
  case InvalidationReason::ContentChanged:
    return "content-changed";
  case InvalidationReason::CalleesChanged:
    return "callees-changed";
  case InvalidationReason::StepsChanged:
    return "steps-changed";
  case InvalidationReason::ProfileChanged:
    return "profile-changed";
  case InvalidationReason::PlanMismatch:
    return "plan-mismatch";
  }
  return "<bad reason>";
}

namespace {

/// Largest-remainder apportionment of \p Total runs proportional to
/// \p Weights (functions with zero weight get zero runs). Deterministic:
/// leftovers go to the largest remainders, ties to the lowest index.
std::vector<uint64_t> apportionRuns(size_t Total,
                                    const std::vector<uint64_t> &Weights) {
  std::vector<uint64_t> Runs(Weights.size(), 0);
  uint64_t Sum = 0;
  for (uint64_t W : Weights)
    Sum += W;
  if (Sum == 0)
    return Runs;
  uint64_t Assigned = 0;
  std::vector<std::pair<uint64_t, size_t>> Rem; // (remainder, index)
  for (size_t I = 0; I != Weights.size(); ++I) {
    uint64_t Num = static_cast<uint64_t>(Total) * Weights[I];
    Runs[I] = Num / Sum;
    Assigned += Runs[I];
    if (Weights[I])
      Rem.push_back({Num % Sum, I});
  }
  std::sort(Rem.begin(), Rem.end(),
            [](const std::pair<uint64_t, size_t> &A,
               const std::pair<uint64_t, size_t> &B) {
              return A.first != B.first ? A.first > B.first
                                        : A.second < B.second;
            });
  for (size_t K = 0; Assigned < Total && !Rem.empty(); ++K) {
    ++Runs[Rem[K % Rem.size()].second];
    ++Assigned;
  }
  return Runs;
}

} // namespace

IncrementalResult ipas::runIncrementalCampaign(ProgramHarness &Harness,
                                               const ModuleLayout &Layout,
                                               const Module &M,
                                               const IncrementalConfig &Cfg) {
  IncrementalResult Result;
  const CampaignConfig &Base = Cfg.Base;
  const char *Label =
      Base.Label.empty() ? "incremental" : Base.Label.c_str();
  obs::PhaseSpan Span("campaign.incremental",
                      obs::AttrSet().add("label", Label));

  // Clean profiling run — same gate and backend as runCampaign: refuse
  // to inject into a program that is wrong before any fault, and compile
  // the VM program on this serial run.
  ExecutionRecord Clean =
      Harness.execute(Layout, RunRequest{.Backend = Base.Backend});
  if (Clean.Status != RunStatus::Finished || !Clean.OutputValid) {
    obs::logMessage(obs::Severity::Error,
                    "fatal: clean run failed (%s) — refusing to inject "
                    "faults into a broken program",
                    runStatusName(Clean.Status));
    std::abort();
  }
  Result.Campaign.CleanSteps = Clean.Steps;
  Result.Campaign.CleanValueSteps = Clean.ValueSteps;
  Result.Campaign.CleanCriticalPathCycles = Clean.CriticalPathCycles;

  uint64_t Budget = static_cast<uint64_t>(
      Base.HangFactor * static_cast<double>(Clean.Steps));
  if (Budget < Clean.Steps + 1000)
    Budget = Clean.Steps + 1000;

  // The per-function plan domain needs the clean value-step → instruction
  // trace. Without it there is nothing to key reuse on; fall back to the
  // plain campaign (everything fresh, no function table).
  std::vector<unsigned> Trace =
      Harness.traceValueSteps(Layout, Base.Backend);
  if (Trace.size() != Clean.ValueSteps || Trace.empty()) {
    obs::logMessage(obs::Severity::Warn,
                    "%s: harness cannot trace value steps; falling back "
                    "to a non-incremental campaign",
                    Label);
    Result.Campaign = runCampaign(Harness, Layout, Base);
    Result.ExecutedRuns = Base.NumRuns - Result.Campaign.PrunedRuns;
    return Result;
  }

  // Static geometry: ids are function-contiguous in module order.
  size_t NumFns = M.numFunctions();
  std::vector<uint64_t> FirstId(NumFns, 0);
  std::vector<uint32_t> IdToFn(M.numInstructions(), 0);
  {
    uint64_t Next = 0;
    for (size_t Fi = 0; Fi != NumFns; ++Fi) {
      FirstId[Fi] = Next;
      uint64_t N = M.function(Fi)->numInstructions();
      for (uint64_t K = 0; K != N; ++K)
        IdToFn[Next + K] = static_cast<uint32_t>(Fi);
      Next += N;
    }
  }

  // Dynamic geometry: each function's local value steps, and the mapping
  // from (function, local step) back to the global step a FaultPlan needs.
  std::vector<std::vector<uint64_t>> GlobalStepOf(NumFns);
  for (uint64_t Step = 0; Step != Trace.size(); ++Step)
    GlobalStepOf[IdToFn[Trace[Step]]].push_back(Step);
  std::vector<uint64_t> LocalSteps(NumFns);
  for (size_t Fi = 0; Fi != NumFns; ++Fi)
    LocalSteps[Fi] = GlobalStepOf[Fi].size();

  // Profile hashes: the caller's profiled clean run when it supplied one
  // (ipas-cc --profile), else one profiled clean run here. All-zero when
  // that run fails — consistently on both sides of a reuse comparison,
  // so reuse still works, just with a weaker guard. The profiled run
  // rides the campaign's backend: the VM folds the same per-function
  // stream hashes natively, so hashes computed on one backend compare
  // against hashes computed on the other.
  std::vector<uint64_t> Profile(NumFns, 0);
  if (Cfg.ProfileHashes && Cfg.ProfileHashes->size() == NumFns) {
    Profile = *Cfg.ProfileHashes;
  } else {
    CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
    Prof.enableFunctionHashes();
    ExecutionRecord Obs = Harness.execute(
        Layout, RunRequest{.Backend = Base.Backend, .Profiler = &Prof});
    if (Obs.Status == RunStatus::Finished && Obs.OutputValid)
      Profile = Prof.functionHashes();
    else
      obs::logMessage(obs::Severity::Warn,
                      "%s: profiled clean run failed; profile hashes "
                      "disabled",
                      Label);
  }

  // Content and reachable-set hashes from the interprocedural analysis.
  CallGraph CG(M);
  ModuleSummaries MS(M, CG);

  // Apportion runs across functions by clean-run value-step share, then
  // draw each function's plans from its own name-derived RNG stream. The
  // first min(new, prior) draws of a stream are identical whenever seed
  // and name match — that prefix property is what lets a shifted
  // apportionment still reuse the prior rows it overlaps.
  std::vector<uint64_t> Planned =
      apportionRuns(Base.NumRuns, LocalSteps);

  struct RowPlan {
    uint64_t GlobalStep;
    uint64_t BitDraw;
    uint32_t LocalSite; ///< Expected site, function-local id.
  };
  std::vector<std::vector<RowPlan>> FnPlans(NumFns);
  for (size_t Fi = 0; Fi != NumFns; ++Fi) {
    if (!Planned[Fi])
      continue;
    const std::string &Name = M.function(Fi)->name();
    Rng FnRng(Base.Seed ^ obs::fnv1a(Name.data(), Name.size()));
    FnPlans[Fi].reserve(Planned[Fi]);
    for (uint64_t R = 0; R != Planned[Fi]; ++R) {
      uint64_t Local = FnRng.nextBelow(LocalSteps[Fi]);
      uint64_t Bits = FnRng.next();
      uint64_t Global = GlobalStepOf[Fi][Local];
      FnPlans[Fi].push_back(
          {Global, Bits,
           static_cast<uint32_t>(Trace[Global] - FirstId[Fi])});
    }
  }

  // Prior store: usable only when it came from the same seed and carries
  // a function table whose planned-run counts actually partition its
  // rows (anything else means it was not written by this driver).
  const obs::RecordStore *Prior = Cfg.Prior;
  std::vector<uint64_t> PriorRowStart;
  if (Prior) {
    bool Usable = Prior->Seed == Base.Seed && !Prior->FunctionMetas.empty();
    if (Usable) {
      uint64_t Off = 0;
      for (const obs::FunctionMeta &FM : Prior->FunctionMetas) {
        PriorRowStart.push_back(Off);
        Off += FM.PlannedRuns;
      }
      Usable = Off == Prior->Rows.size();
    }
    if (!Usable) {
      if (Prior->Seed != Base.Seed)
        obs::logMessage(obs::Severity::Warn,
                        "%s: prior store was campaigned with a different "
                        "seed; ignoring it",
                        Label);
      Prior = nullptr;
      PriorRowStart.clear();
    }
  }

  obs::TraceSink::event(
      "campaign.incremental.begin",
      obs::AttrSet()
          .add("label", Label)
          .addHex("seed", Base.Seed)
          .add("runs", static_cast<uint64_t>(Base.NumRuns))
          .add("functions", static_cast<uint64_t>(NumFns))
          .add("prior", Prior != nullptr)
          .add("clean_value_steps", Clean.ValueSteps));

  // Per-function reuse decision. A function's prior rows carry over only
  // when every invalidation key matches AND every overlapping prior row
  // agrees with the re-drawn plan (site and bit) — the plan check turns
  // any residual hash-collision or store-tampering risk into plain
  // re-execution instead of wrong data.
  std::vector<obs::FunctionMeta> &Metas = Result.FunctionMetas;
  Metas.resize(NumFns);
  std::vector<uint64_t> ReuseCount(NumFns, 0); // prior rows to copy
  std::vector<const obs::FunctionMeta *> PriorMeta(NumFns, nullptr);
  std::vector<uint64_t> PriorStart(NumFns, 0);
  for (size_t Fi = 0; Fi != NumFns; ++Fi) {
    obs::FunctionMeta &FM = Metas[Fi];
    FM.FunctionIndex = static_cast<uint32_t>(Fi);
    const Function *F = M.function(Fi);
    FM.ContentHash = MS.contentHash(F);
    FM.ReachableHash = MS.reachableHash(F);
    FM.ProfileHash = Profile[Fi];
    FM.FirstInstructionId = FirstId[Fi];
    FM.LocalValueSteps = LocalSteps[Fi];
    FM.PlannedRuns = Planned[Fi];

    InvalidationReason Reason = InvalidationReason::Fresh;
    const obs::FunctionMeta *PM = nullptr;
    if (Prior) {
      for (size_t K = 0; K != Prior->FunctionMetas.size(); ++K) {
        const obs::FunctionMeta &Cand = Prior->FunctionMetas[K];
        if (Cand.FunctionIndex < Prior->Functions.size() &&
            Prior->Functions[Cand.FunctionIndex] == F->name()) {
          PM = &Cand;
          PriorStart[Fi] = PriorRowStart[K];
          break;
        }
      }
    }
    if (PM) {
      if (PM->ContentHash != FM.ContentHash)
        Reason = InvalidationReason::ContentChanged;
      else if (PM->ReachableHash != FM.ReachableHash)
        Reason = InvalidationReason::CalleesChanged;
      else if (PM->LocalValueSteps != FM.LocalValueSteps)
        Reason = InvalidationReason::StepsChanged;
      else if (PM->ProfileHash != FM.ProfileHash)
        Reason = InvalidationReason::ProfileChanged;
      else {
        Reason = InvalidationReason::Reused;
        uint64_t Overlap = std::min(Planned[Fi], PM->PlannedRuns);
        for (uint64_t R = 0; R != Overlap; ++R) {
          const obs::InjectionRow &Row =
              Prior->Rows[PriorStart[Fi] + R];
          const RowPlan &Plan = FnPlans[Fi][R];
          if (Row.InstructionId - PM->FirstInstructionId !=
                  Plan.LocalSite ||
              Row.BitIndex != Plan.BitDraw % 64 ||
              Row.Outcome >= NumOutcomes) {
            Reason = InvalidationReason::PlanMismatch;
            break;
          }
        }
        if (Reason == InvalidationReason::Reused)
          ReuseCount[Fi] = Overlap;
      }
    }
    FM.Invalidation = static_cast<uint8_t>(Reason);
    PriorMeta[Fi] = PM;
  }

  // Row layout: function-major in module order (what PlannedRuns prefix
  // sums promise the next incremental consumer).
  size_t TotalRows = 0;
  for (uint64_t P : Planned)
    TotalRows += P;
  Result.Campaign.Records.assign(TotalRows, InjectionRecord());
  std::vector<uint64_t> RowStart(NumFns, 0);
  {
    uint64_t Off = 0;
    for (size_t Fi = 0; Fi != NumFns; ++Fi) {
      RowStart[Fi] = Off;
      Off += Planned[Fi];
    }
  }

  // Pruning decision per row, same semantics as runCampaign: provably
  // benign target → Masked without executing. Decided up front; the
  // threaded loop below never branches on shared mutable state.
  std::vector<char> Pruned(TotalRows, 0);
  std::vector<char> Reused(TotalRows, 0);
  std::vector<char> SiteSeen;
  if (Base.ProvablyBenign)
    SiteSeen.assign(Base.ProvablyBenign->size(), 0);
  std::vector<size_t> ToExecute;
  for (size_t Fi = 0; Fi != NumFns; ++Fi) {
    for (uint64_t R = 0; R != Planned[Fi]; ++R) {
      size_t RowIdx = RowStart[Fi] + R;
      const RowPlan &Plan = FnPlans[Fi][R];
      unsigned Id = Trace[Plan.GlobalStep];
      InjectionRecord &Rec = Result.Campaign.Records[RowIdx];
      Rec.InstructionId = Id;
      Rec.BitIndex = static_cast<unsigned>(Plan.BitDraw % 64);
      Rec.TargetValueStep = Plan.GlobalStep;
      if (Base.ProvablyBenign && Id < Base.ProvablyBenign->size() &&
          (*Base.ProvablyBenign)[Id]) {
        Pruned[RowIdx] = 1;
        Rec.Result = Outcome::Masked;
        ++Result.Campaign.PrunedRuns;
        if (!SiteSeen[Id]) {
          SiteSeen[Id] = 1;
          ++Result.Campaign.PrunedSites;
        }
        continue;
      }
      if (R < ReuseCount[Fi]) {
        const obs::InjectionRow &Row =
            Prior->Rows[PriorStart[Fi] + R];
        Rec.Result = static_cast<Outcome>(Row.Outcome);
        Rec.LatencyUs = 0; // latency is not part of the reused stream
        Reused[RowIdx] = 1;
        ++Result.ReusedRuns;
        continue;
      }
      ToExecute.push_back(RowIdx);
    }
  }
  for (size_t Fi = 0; Fi != NumFns; ++Fi) {
    uint64_t Reusable = ReuseCount[Fi];
    // Pruned rows inside the reusable prefix were classified by proof,
    // not by the prior store; report only rows actually carried over.
    uint64_t Carried = 0;
    for (uint64_t R = 0; R != Reusable; ++R)
      if (Reused[RowStart[Fi] + R])
        ++Carried;
    Metas[Fi].ReusedRuns = Carried;
  }
  Result.ExecutedRuns = ToExecute.size();

  const bool Stats = obs::statsEnabled();
  const bool TraceRuns = Base.TraceRuns && obs::TraceSink::enabled();
  size_t Every =
      Base.ProgressEvery ? Base.ProgressEvery : ToExecute.size() / 10;
  if (Every == 0)
    Every = 1;
  std::atomic<size_t> Done{0};
  // Executed rows split by the engine that ran them, as in runCampaign.
  std::atomic<size_t> VmRuns{0}, InterpRuns{0};
  const uint64_t LoopStartUs = obs::monotonicMicros();

  auto RunOne = [&](size_t RowIdx) {
    InjectionRecord &Rec = Result.Campaign.Records[RowIdx];
    FaultPlan Plan;
    Plan.TargetValueStep = Rec.TargetValueStep;
    // BitIndex is BitDraw % 64 and the interpreter reduces modulo the
    // value width, which always divides 64 here — so the reduced index
    // injects the identical bit the raw draw would have.
    Plan.BitDraw = Rec.BitIndex;
    uint64_t T0 = obs::monotonicMicros();
    RunRequest Req{
        .Plan = &Plan, .StepBudget = Budget, .Backend = Base.Backend};
    ExecutionRecord R = Harness.execute(Layout, Req);
    uint64_t Us = obs::monotonicMicros() - T0;
    assert((R.Status != RunStatus::Finished || R.FaultInjected) &&
           "the clean prefix must always reach the target step");
    Rec.InstructionId = R.FaultedInstructionId;
    Rec.Result = classifyOutcome(R);
    Rec.LatencyUs = Us > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(Us);
    (R.BackendUsed == ExecBackend::Vm ? VmRuns : InterpRuns)
        .fetch_add(1, std::memory_order_relaxed);
    if (Stats && TraceRuns)
      obs::TraceSink::event("campaign.run",
                            obs::AttrSet()
                                .add("label", Label)
                                .add("run", static_cast<uint64_t>(RowIdx))
                                .add("inst", Rec.InstructionId)
                                .add("bit", Rec.BitIndex)
                                .add("outcome", outcomeName(Rec.Result))
                                .add("us", Us));
    size_t Finished = Done.fetch_add(1, std::memory_order_relaxed) + 1;
    // Same rate-limited throughput/ETA progress as runCampaign, over the
    // executed (non-reused, non-pruned) runs only.
    if (Finished % Every == 0 && Finished != ToExecute.size() &&
        obs::logEnabled(obs::Severity::Info)) {
      double Elapsed =
          static_cast<double>(obs::monotonicMicros() - LoopStartUs) * 1e-6;
      double Rate = Elapsed > 0 ? static_cast<double>(Finished) / Elapsed
                                : 0.0;
      if (Stats)
        obs::MetricsRegistry::global()
            .gauge("fault.campaign.runs_per_sec")
            .set(Rate);
      double EtaS =
          Rate > 0
              ? static_cast<double>(ToExecute.size() - Finished) / Rate
              : 0.0;
      obs::logMessage(obs::Severity::Info,
                      "%s: %zu/%zu executed runs  %.0f runs/s  eta %.1fs",
                      Label, Finished, ToExecute.size(), Rate, EtaS);
    }
  };

  parallelFor(ToExecute.size(), Base.NumThreads,
              [&](size_t K) { RunOne(ToExecute[K]); });

  for (const InjectionRecord &Rec : Result.Campaign.Records)
    ++Result.Campaign.Counts[static_cast<size_t>(Rec.Result)];
  Result.Campaign.VmRuns = VmRuns.load(std::memory_order_relaxed);
  Result.Campaign.InterpRuns = InterpRuns.load(std::memory_order_relaxed);
  Result.Campaign.WallSeconds = Span.seconds();
  // Loop throughput over the runs that actually executed (reused and
  // pruned rows cost nothing), mirroring runCampaign — the session
  // manifest records it for cross-run trend queries.
  double LoopSeconds =
      static_cast<double>(obs::monotonicMicros() - LoopStartUs) * 1e-6;
  if (LoopSeconds > 0 && !ToExecute.empty())
    Result.Campaign.RunsPerSec =
        static_cast<double>(ToExecute.size()) / LoopSeconds;

  if (Stats) {
    auto &Reg = obs::MetricsRegistry::global();
    Reg.counter("fault.incremental.campaigns").inc();
    Reg.counter("fault.incremental.reused_runs").inc(Result.ReusedRuns);
    Reg.counter("fault.incremental.executed_runs")
        .inc(Result.ExecutedRuns);
  }
  obs::AttrSet DoneAttrs;
  DoneAttrs.add("label", Label)
      .add("runs", static_cast<uint64_t>(TotalRows))
      .add("reused", static_cast<uint64_t>(Result.ReusedRuns))
      .add("executed", static_cast<uint64_t>(Result.ExecutedRuns))
      .add("pruned", static_cast<uint64_t>(Result.Campaign.PrunedRuns));
  for (size_t O = 0; O != NumOutcomes; ++O)
    DoneAttrs.add(outcomeName(static_cast<Outcome>(O)),
                  static_cast<uint64_t>(Result.Campaign.Counts[O]));
  obs::TraceSink::event("campaign.incremental.done", DoneAttrs);
  Span.addAttr(DoneAttrs);
  return Result;
}
