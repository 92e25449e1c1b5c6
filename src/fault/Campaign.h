//===- fault/Campaign.h - Statistical fault injection (paper §4.1, §5.4) --===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistical fault injection in the FlipIt model: each run targets a
/// uniformly random dynamic instance of a value-producing instruction and
/// flips a uniformly random bit of its result value. Sampling dynamic
/// instances weights static instructions by execution frequency, exactly
/// like injecting at a random cycle of a real execution.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_FAULT_CAMPAIGN_H
#define IPAS_FAULT_CAMPAIGN_H

#include "fault/Outcome.h"
#include "fault/ProgramHarness.h"
#include "obs/Propagation.h"
#include "support/Random.h"

#include <array>
#include <vector>

namespace ipas {

struct CampaignConfig {
  size_t NumRuns = 1024;
  /// A run exceeding HangFactor x clean-run steps is classified as a hang
  /// ("substantially longer execution time", §5.5).
  double HangFactor = 10.0;
  uint64_t Seed = 0xf417;
  /// Injection runs are independent, so campaigns parallelize trivially —
  /// the paper (§7) suggests exactly this for large codes. Runs go
  /// through parallelFor (support/Parallel.h), which hands out run
  /// indices one at a time. Plans are drawn up front and every
  /// run writes only its own record, so results are deterministic
  /// regardless of the thread count. The harness engine is thread-safe
  /// once the serial clean run has captured the golden output. The
  /// default stays 1 for direct callers (ipas-cc's ~6 us runs gain
  /// little); IpasPipeline passes PipelineConfig::NumThreads, which
  /// defaults to every core.
  unsigned NumThreads = 1;
  /// Per-instruction-id flags from analysis/SocPropagation: a true entry
  /// means a corruption of that instruction's result provably reaches no
  /// sink, so the run's outcome is Masked without executing. Pruning does
  /// not perturb plan drawing or non-pruned runs in any way — the full
  /// campaign's per-record (InstructionId, BitIndex, Result) stream stays
  /// bit-identical. Needs the clean run's value-step trace
  /// (ProgramHarness::traceValueSteps); null, or a trace that comes back
  /// empty, disables pruning.
  const std::vector<bool> *ProvablyBenign = nullptr;
  /// Telemetry label carried on every trace record and progress line —
  /// drivers pass the technique/variant name (empty means "campaign").
  /// Together with Seed and ProvablyBenign it is recorded in the
  /// `campaign.begin` trace event, so a campaign is reproducible from
  /// its trace file alone.
  std::string Label;
  /// Emit a progress log line (Info severity, so -q silences it) and
  /// trace event every N completed runs; 0 picks one tenth of the
  /// campaign.
  size_t ProgressEvery = 0;
  /// Emit one `campaign.run` trace record (outcome + latency) per
  /// injection when a trace sink is open.
  bool TraceRuns = true;
  /// Execution engine requested for every run of the campaign. Vm runs
  /// on the bytecode VM (10-100x faster, observably equivalent — see
  /// DESIGN.md). The harness engine serves each run the VM cannot
  /// (value-step trace, propagation re-execution, multi-rank, a module
  /// that does not compile) on the interpreter and counts it under
  /// vm.fallback.<reason>. The record stream is bit-identical either
  /// way.
  ExecBackend Backend = ExecBackend::Interp;
  /// Live streaming telemetry: when nonzero, a monitor thread emits one
  /// `campaign.heartbeat` trace event every HeartbeatMs milliseconds —
  /// wall time, runs done/total, throughput, ETA, per-outcome counts and
  /// the per-backend run split — on a cadence independent of the run
  /// rate, plus one final heartbeat (attr `final`, done == runs) when
  /// the injection loop ends. Consumers (tools/ipas-top, the future
  /// ipas-served protocol) treat a missing heartbeat for N cadences as a
  /// stall. Heartbeats read only atomic tallies: the deterministic
  /// (InstructionId, BitIndex, Result) record stream is untouched.
  size_t HeartbeatMs = 0;
  /// Propagation tracing: every PropSampleEvery-th run (run indices with
  /// `Run % PropSampleEvery == 0`, skipping pruned runs) is re-executed
  /// under full observation after the injection loop, yielding one
  /// obs::PropRecord in CampaignResult::PropRecords. 0 disables tracing.
  /// Sampling is a pure function of the run index — it draws nothing
  /// from the campaign RNG and the traced runs are separate
  /// re-executions — so the (InstructionId, BitIndex, Result) record
  /// stream is bit-identical with tracing on or off and for any
  /// NumThreads. Observed runs always execute on the interpreter.
  size_t PropSampleEvery = 0;
};

/// One injection and its classified outcome.
struct InjectionRecord {
  unsigned InstructionId = 0; ///< Static instruction whose result was hit.
  unsigned BitIndex = 0;      ///< Bit flipped (modulo the result width).
  uint64_t TargetValueStep = 0;
  Outcome Result = Outcome::Masked;
  /// Wall time of this injected run in microseconds (0 for pruned runs).
  /// Measured unconditionally — two clock reads per run — and persisted
  /// into the record store; not part of the deterministic record stream.
  uint32_t LatencyUs = 0;
};

struct CampaignResult {
  uint64_t CleanSteps = 0;
  uint64_t CleanValueSteps = 0;
  uint64_t CleanCriticalPathCycles = 0;
  std::vector<InjectionRecord> Records;
  std::array<size_t, NumOutcomes> Counts{};
  /// Injection-site pruning statistics (zero when pruning was disabled).
  size_t PrunedRuns = 0;  ///< Runs classified without executing.
  size_t PrunedSites = 0; ///< Distinct benign static instructions hit.
  /// Wall-clock duration of the whole campaign, including the clean
  /// profiling run (not serialized by the results cache).
  double WallSeconds = 0.0;
  /// Propagation traces of the sampled runs, in run order (empty unless
  /// CampaignConfig::PropSampleEvery was set). Not part of the
  /// deterministic record stream.
  std::vector<obs::PropRecord> PropRecords;
  /// Injections traced (== PropRecords.size()) vs skipped by sampling,
  /// pruning, or a failed clean reference run.
  size_t TracedRuns = 0;
  size_t SkippedTraceRuns = 0;
  /// Executed (non-pruned) runs split by the engine that actually ran
  /// them (ExecutionRecord::BackendUsed): VmRuns + InterpRuns + PrunedRuns
  /// == NumRuns. A nonzero InterpRuns under Backend == Vm means fallbacks
  /// — the per-reason totals live in the vm.fallback.* counters.
  size_t VmRuns = 0;
  size_t InterpRuns = 0;
  /// Heartbeat-derived throughput stats, archived by the session manifest
  /// (fault/SessionBuild.h). HeartbeatsEmitted counts every
  /// `campaign.heartbeat` event including the final one (0 when
  /// HeartbeatMs was 0); RunsPerSec is the injection-loop throughput
  /// measured at the loop join — the same clock the heartbeats report.
  /// Wall-clock derived, so not part of the deterministic record stream.
  size_t HeartbeatsEmitted = 0;
  double RunsPerSec = 0.0;

  size_t count(Outcome O) const {
    return Counts[static_cast<size_t>(O)];
  }
  /// Total classified runs (equals Records.size() unless the result was
  /// restored from a cache, which keeps only the counts).
  size_t totalRuns() const {
    size_t Total = 0;
    for (size_t C : Counts)
      Total += C;
    return Total;
  }
  double fraction(Outcome O) const {
    size_t Total = totalRuns();
    return Total ? static_cast<double>(count(O)) /
                       static_cast<double>(Total)
                 : 0.0;
  }
};

/// Classifies a finished/failed execution into the paper's taxonomy.
Outcome classifyOutcome(const ExecutionRecord &R);

/// Runs a clean profiling run followed by \p Cfg.NumRuns injections.
/// Aborts (assert) if the clean run itself fails verification — the
/// program under test must be correct before injecting faults.
CampaignResult runCampaign(ProgramHarness &Harness,
                           const ModuleLayout &Layout,
                           const CampaignConfig &Cfg);

} // namespace ipas

#endif // IPAS_FAULT_CAMPAIGN_H
