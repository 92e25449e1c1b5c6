//===- fault/Campaign.cpp ------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/Campaign.h"

#include "fault/Propagation.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

using namespace ipas;

const char *ipas::outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Crash:
    return "crash";
  case Outcome::Hang:
    return "hang";
  case Outcome::Detected:
    return "detected";
  case Outcome::Masked:
    return "masked";
  case Outcome::SOC:
    return "soc";
  }
  return "<bad outcome>";
}

Outcome ipas::classifyOutcome(const ExecutionRecord &R) {
  switch (R.Status) {
  case RunStatus::Trapped:
    return Outcome::Crash;
  case RunStatus::OutOfSteps:
    return Outcome::Hang;
  case RunStatus::Detected:
    return Outcome::Detected;
  case RunStatus::Finished:
    return R.OutputValid ? Outcome::Masked : Outcome::SOC;
  case RunStatus::Running:
  case RunStatus::Blocked:
    break;
  }
  assert(false && "execution ended in a non-terminal state");
  return Outcome::Crash;
}

namespace {

/// Pre-resolved metric handles (name lookup once per process).
struct FaultMetrics {
  obs::Counter &Campaigns;
  obs::Counter &Runs;
  obs::Counter &PrunedRuns;
  obs::Counter *ByOutcome[NumOutcomes];
  obs::Histogram &RunMicros;
  obs::Gauge &RunsPerSec;

  static FaultMetrics &get() {
    auto &Reg = obs::MetricsRegistry::global();
    static FaultMetrics M{
        Reg.counter("fault.campaigns"),
        Reg.counter("fault.runs"),
        Reg.counter("fault.pruned_runs"),
        {
            &Reg.counter("fault.outcome.crash"),
            &Reg.counter("fault.outcome.hang"),
            &Reg.counter("fault.outcome.detected"),
            &Reg.counter("fault.outcome.masked"),
            &Reg.counter("fault.outcome.soc"),
        },
        Reg.histogram("fault.run_micros"),
        Reg.gauge("fault.campaign.runs_per_sec"),
    };
    return M;
  }
};

} // namespace

CampaignResult ipas::runCampaign(ProgramHarness &Harness,
                                 const ModuleLayout &Layout,
                                 const CampaignConfig &Cfg) {
  CampaignResult Result;

  const char *Label = Cfg.Label.empty() ? "campaign" : Cfg.Label.c_str();
  obs::PhaseSpan Span("campaign",
                      obs::AttrSet().add("label", Label));

  // Clean profiling run: establishes the golden output and step counts
  // and checks the program is correct to begin with. It runs on the
  // injection loop's backend (the results are equal across backends by
  // construction, but the VM compiles lazily on the first run — doing
  // that here, serially, keeps the threaded loop below race-free).
  ExecutionRecord Clean =
      Harness.execute(Layout, RunRequest{.Backend = Cfg.Backend});
  if (Clean.Status != RunStatus::Finished || !Clean.OutputValid) {
    obs::logMessage(obs::Severity::Error,
                    "fatal: clean run failed (%s) — refusing to inject "
                    "faults into a broken program",
                    runStatusName(Clean.Status));
    std::abort();
  }
  Result.CleanSteps = Clean.Steps;
  Result.CleanValueSteps = Clean.ValueSteps;
  Result.CleanCriticalPathCycles = Clean.CriticalPathCycles;

  uint64_t Budget = static_cast<uint64_t>(
      Cfg.HangFactor * static_cast<double>(Clean.Steps));
  if (Budget < Clean.Steps + 1000)
    Budget = Clean.Steps + 1000;

  // Everything needed to re-run this campaign bit-identically lives in
  // this one event (plus the harness identity the driver records in the
  // trace header): seed, run count, hang budget, and the prune decision.
  obs::TraceSink::event(
      "campaign.begin",
      obs::AttrSet()
          .add("label", Label)
          .addHex("seed", Cfg.Seed)
          .add("runs", static_cast<uint64_t>(Cfg.NumRuns))
          .add("hang_factor", Cfg.HangFactor)
          .add("threads", Cfg.NumThreads)
          .add("backend", backendName(Cfg.Backend))
          .add("prune", Cfg.ProvablyBenign != nullptr)
          .add("clean_steps", Clean.Steps)
          .add("clean_value_steps", Clean.ValueSteps));

  // Draw every plan up front so results do not depend on the thread
  // count or scheduling.
  Rng CampaignRng(Cfg.Seed);
  std::vector<FaultPlan> Plans(Cfg.NumRuns);
  for (FaultPlan &Plan : Plans) {
    Plan.TargetValueStep = CampaignRng.nextBelow(Clean.ValueSteps);
    Plan.BitDraw = CampaignRng.next();
  }

  // Injection-site pruning: a clean traced run maps each dynamic value
  // step to its static instruction. Plans whose target the static
  // SOC-propagation analysis proved benign are classified Masked without
  // executing — the outcome the execution would produce, since by
  // construction the corruption reaches no store, call, return, branch,
  // check, or trap-capable use. Decisions are made up front so the
  // threaded loop below stays race-free.
  std::vector<unsigned> Trace;
  std::vector<char> Pruned(Cfg.NumRuns, 0);
  if (Cfg.ProvablyBenign) {
    Trace = Harness.traceValueSteps(Layout, Cfg.Backend);
    if (Trace.size() == Clean.ValueSteps) {
      std::vector<char> SiteSeen(Cfg.ProvablyBenign->size(), 0);
      for (size_t Run = 0; Run != Cfg.NumRuns; ++Run) {
        unsigned Id = Trace[Plans[Run].TargetValueStep];
        if (Id < Cfg.ProvablyBenign->size() && (*Cfg.ProvablyBenign)[Id]) {
          Pruned[Run] = 1;
          ++Result.PrunedRuns;
          if (!SiteSeen[Id]) {
            SiteSeen[Id] = 1;
            ++Result.PrunedSites;
          }
        }
      }
    }
  }

  const bool Stats = obs::statsEnabled();
  const bool TraceRuns = Cfg.TraceRuns && obs::TraceSink::enabled();
  size_t Every = Cfg.ProgressEvery ? Cfg.ProgressEvery : Cfg.NumRuns / 10;
  if (Every == 0)
    Every = 1;
  std::atomic<size_t> Done{0};
  const uint64_t LoopStartUs = obs::monotonicMicros();

  // Live tallies for the heartbeat monitor (and the final per-backend
  // split). Relaxed atomics: heartbeats are a sampled view, the exact
  // counts are re-derived from Records after the join.
  std::array<std::atomic<size_t>, NumOutcomes> LiveOutcomes{};
  std::atomic<size_t> LivePruned{0}, LiveVm{0}, LiveInterp{0};

  // Heartbeat emission is shared between the timed monitor thread and
  // the final (post-join) beat; Seq orders them for consumers.
  std::atomic<uint64_t> HeartbeatSeq{0};
  auto EmitHeartbeat = [&](bool Final) {
    size_t DoneNow = Done.load(std::memory_order_relaxed);
    double Elapsed =
        static_cast<double>(obs::monotonicMicros() - LoopStartUs) * 1e-6;
    double Rate =
        Elapsed > 0 ? static_cast<double>(DoneNow) / Elapsed : 0.0;
    double EtaS =
        Rate > 0 ? static_cast<double>(Cfg.NumRuns - DoneNow) / Rate : 0.0;
    obs::AttrSet A;
    A.add("label", Label)
        .add("seq", HeartbeatSeq.fetch_add(1, std::memory_order_relaxed))
        .add("wall_s", Elapsed)
        .add("done", static_cast<uint64_t>(DoneNow))
        .add("runs", static_cast<uint64_t>(Cfg.NumRuns))
        .add("runs_per_sec", Rate)
        .add("eta_seconds", Final ? 0.0 : EtaS)
        .add("every_ms", static_cast<uint64_t>(Cfg.HeartbeatMs));
    for (size_t O = 0; O != NumOutcomes; ++O)
      A.add(outcomeName(static_cast<Outcome>(O)),
            static_cast<uint64_t>(
                LiveOutcomes[O].load(std::memory_order_relaxed)));
    A.add("pruned",
          static_cast<uint64_t>(LivePruned.load(std::memory_order_relaxed)))
        .add("vm_runs",
             static_cast<uint64_t>(LiveVm.load(std::memory_order_relaxed)))
        .add("interp_runs", static_cast<uint64_t>(
                                LiveInterp.load(std::memory_order_relaxed)))
        .add("final", Final);
    obs::TraceSink::event("campaign.heartbeat", A);
  };

  Result.Records.assign(Cfg.NumRuns, InjectionRecord());
  auto RunOne = [&](size_t Run) {
    const FaultPlan &Plan = Plans[Run];
    InjectionRecord &Rec = Result.Records[Run];
    if (Pruned[Run]) {
      Rec.InstructionId = Trace[Plan.TargetValueStep];
      Rec.BitIndex = static_cast<unsigned>(Plan.BitDraw % 64);
      Rec.TargetValueStep = Plan.TargetValueStep;
      Rec.Result = Outcome::Masked;
      LivePruned.fetch_add(1, std::memory_order_relaxed);
    } else {
      uint64_t T0 = obs::monotonicMicros();
      RunRequest Req{
          .Plan = &Plan, .StepBudget = Budget, .Backend = Cfg.Backend};
      ExecutionRecord R = Harness.execute(Layout, Req);
      uint64_t Us = obs::monotonicMicros() - T0;
      assert((R.Status != RunStatus::Finished || R.FaultInjected) &&
             "the clean prefix must always reach the target step");
      Rec.InstructionId = R.FaultedInstructionId;
      Rec.BitIndex = static_cast<unsigned>(Plan.BitDraw % 64);
      Rec.TargetValueStep = Plan.TargetValueStep;
      Rec.Result = classifyOutcome(R);
      Rec.LatencyUs =
          Us > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(Us);
      (R.BackendUsed == ExecBackend::Vm ? LiveVm : LiveInterp)
          .fetch_add(1, std::memory_order_relaxed);
      if (Stats) {
        FaultMetrics::get().RunMicros.observe(Us);
        if (TraceRuns) {
          obs::AttrSet A;
          A.add("label", Label)
              .add("run", static_cast<uint64_t>(Run))
              .add("inst", Rec.InstructionId)
              .add("bit", Rec.BitIndex)
              .add("outcome", outcomeName(Rec.Result))
              .add("us", Us)
              .add("backend", backendName(R.BackendUsed));
          if (R.FallbackReason)
            A.add("fallback_reason", R.FallbackReason);
          obs::TraceSink::event("campaign.run", A);
        }
      }
    }
    LiveOutcomes[static_cast<size_t>(Rec.Result)].fetch_add(
        1, std::memory_order_relaxed);
    size_t Finished = Done.fetch_add(1, std::memory_order_relaxed) + 1;
    // Rate-limited progress (every `Every` runs, plus one final line at
    // completion so logs and live monitors always see a terminal 100%
    // state). Throughput and ETA derive from the loop clock and go
    // through the metrics registry, so any concurrent exporter sees the
    // same numbers the log line prints.
    if (Finished % Every == 0 || Finished == Cfg.NumRuns) {
      double Elapsed =
          static_cast<double>(obs::monotonicMicros() - LoopStartUs) * 1e-6;
      double Rate = Elapsed > 0 ? static_cast<double>(Finished) / Elapsed
                                : 0.0;
      if (Stats)
        FaultMetrics::get().RunsPerSec.set(Rate);
      double EtaS =
          Rate > 0 ? static_cast<double>(Cfg.NumRuns - Finished) / Rate
                   : 0.0;
      if (obs::logEnabled(obs::Severity::Info))
        obs::logMessage(obs::Severity::Info,
                        "%s: %zu/%zu runs  %.0f runs/s  eta %.1fs", Label,
                        Finished, Cfg.NumRuns, Rate, EtaS);
      obs::TraceSink::event("campaign.progress",
                            obs::AttrSet()
                                .add("label", Label)
                                .add("done", static_cast<uint64_t>(Finished))
                                .add("runs",
                                     static_cast<uint64_t>(Cfg.NumRuns))
                                .add("runs_per_sec", Rate)
                                .add("eta_seconds", EtaS));
    }
  };

  // Live monitor: a dedicated thread beats every HeartbeatMs regardless
  // of how fast (or stuck) the injection loop is — that independence is
  // the point, a hung run still produces heartbeats with a frozen
  // `done`, and a dead campaign produces none at all (ipas-top's stall
  // rule). The condition variable gives prompt shutdown on completion.
  std::mutex HbMutex;
  std::condition_variable HbCv;
  bool LoopDone = false;
  std::thread Monitor;
  if (Cfg.HeartbeatMs) {
    Monitor = std::thread([&] {
      std::unique_lock<std::mutex> Lk(HbMutex);
      while (!HbCv.wait_for(Lk, std::chrono::milliseconds(Cfg.HeartbeatMs),
                            [&] { return LoopDone; }))
        EmitHeartbeat(false);
    });
  }

  parallelFor(Cfg.NumRuns, Cfg.NumThreads, RunOne);

  if (Monitor.joinable()) {
    {
      std::lock_guard<std::mutex> Lk(HbMutex);
      LoopDone = true;
    }
    HbCv.notify_all();
    Monitor.join();
    // Terminal heartbeat, emitted serially after the join: done == runs,
    // final == true. Live monitors key "campaign ended" off this.
    EmitHeartbeat(true);
  }

  // Injection-loop throughput, measured at the join on the heartbeat
  // clock so the manifest and the final heartbeat agree.
  {
    double LoopSeconds =
        static_cast<double>(obs::monotonicMicros() - LoopStartUs) * 1e-6;
    Result.RunsPerSec =
        LoopSeconds > 0
            ? static_cast<double>(Cfg.NumRuns) / LoopSeconds
            : 0.0;
    Result.HeartbeatsEmitted =
        HeartbeatSeq.load(std::memory_order_relaxed);
  }

  for (const InjectionRecord &Rec : Result.Records)
    ++Result.Counts[static_cast<size_t>(Rec.Result)];
  Result.VmRuns = LiveVm.load(std::memory_order_relaxed);
  Result.InterpRuns = LiveInterp.load(std::memory_order_relaxed);

  // Propagation tracing: a *serial* post-pass re-executing the sampled
  // runs under full observation, inside the campaign span (so the
  // per-injection `campaign.prop` child spans nest laminarly under it).
  // Running after the injection loop keeps the deterministic record
  // stream untouched by construction: the plans are already drawn and
  // classified, and the traced executions are independent repeats.
  if (Cfg.PropSampleEvery) {
    CleanReference Ref = captureCleanReference(Harness, Layout, Cfg.Backend);
    if (Ref.Valid) {
      for (size_t Run = 0; Run < Cfg.NumRuns; Run += Cfg.PropSampleEvery) {
        if (Pruned[Run])
          continue; // provably benign: nothing propagates, by proof
        obs::PhaseSpan PropSpan(
            "campaign.prop",
            obs::AttrSet().add("label", Label).add(
                "run", static_cast<uint64_t>(Run)));
        Result.PropRecords.push_back(tracePropagation(
            Harness, Layout, Ref, Plans[Run], Budget, Run, Cfg.Backend));
      }
      Result.TracedRuns = Result.PropRecords.size();
    } else {
      obs::logMessage(obs::Severity::Warn,
                      "%s: propagation tracing disabled: clean "
                      "reference capture failed",
                      Label);
    }
    Result.SkippedTraceRuns = Cfg.NumRuns - Result.TracedRuns;
    // Sampling must never be silent: say what was traced and what was
    // not, in the log and in the trace.
    obs::logMessage(obs::Severity::Info,
                    "%s: propagation tracing: %zu of %zu injections "
                    "traced (1 in %zu sampled), %zu skipped",
                    Label, Result.TracedRuns, Cfg.NumRuns,
                    Cfg.PropSampleEvery, Result.SkippedTraceRuns);
    obs::TraceSink::event(
        "campaign.prop.sample",
        obs::AttrSet()
            .add("label", Label)
            .add("sample_every",
                 static_cast<uint64_t>(Cfg.PropSampleEvery))
            .add("traced", static_cast<uint64_t>(Result.TracedRuns))
            .add("skipped",
                 static_cast<uint64_t>(Result.SkippedTraceRuns)));
  }

  Result.WallSeconds = Span.seconds();

  if (Stats) {
    FaultMetrics &M = FaultMetrics::get();
    M.Campaigns.inc();
    M.Runs.inc(Cfg.NumRuns);
    M.PrunedRuns.inc(Result.PrunedRuns);
    for (size_t O = 0; O != NumOutcomes; ++O)
      M.ByOutcome[O]->inc(Result.Counts[O]);
  }
  obs::AttrSet DoneAttrs;
  DoneAttrs.add("label", Label)
      .add("runs", static_cast<uint64_t>(Cfg.NumRuns))
      .add("pruned", static_cast<uint64_t>(Result.PrunedRuns))
      .add("vm_runs", static_cast<uint64_t>(Result.VmRuns))
      .add("interp_runs", static_cast<uint64_t>(Result.InterpRuns))
      .add("seconds", Result.WallSeconds);
  for (size_t O = 0; O != NumOutcomes; ++O)
    DoneAttrs.add(outcomeName(static_cast<Outcome>(O)),
                  static_cast<uint64_t>(Result.Counts[O]));
  obs::TraceSink::event("campaign.done", DoneAttrs);
  Span.addAttr(DoneAttrs);
  return Result;
}
