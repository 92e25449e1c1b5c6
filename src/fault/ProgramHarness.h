//===- fault/ProgramHarness.h - Injectable program and its run engine -----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign driver is generic over the program under test. A harness
/// describes a program — entry, arguments, memory, output, rank count —
/// and its verification routine (the application-specific check of the
/// paper's Table 2). Running it is the job of one shared engine layer,
/// ProgramHarness::execute(Layout, RunRequest): it builds the execution
/// context, picks the backend for each run, records every VM fallback,
/// and captures the golden output on the first clean run.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_FAULT_PROGRAMHARNESS_H
#define IPAS_FAULT_PROGRAMHARNESS_H

#include "interp/Interpreter.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ipas {

class CostProfiler; // interp/CostProfiler.h
namespace vm {
struct VmProgram;
class VmContext;
} // namespace vm

/// Which execution engine a run asks for. Interp is the reference
/// tree-walking interpreter; Vm is the threaded-code bytecode VM
/// (vm/VM.h), observably equivalent but much faster on campaign
/// workloads. The engine serves a Vm request on the interpreter when the
/// run needs something only the interpreter has (see
/// ProgramHarness::execute) and tags the record with the reason.
enum class ExecBackend : uint8_t { Interp, Vm };

const char *backendName(ExecBackend B);

/// The closed set of reasons a Vm-requested run ends up on the
/// interpreter, as vm.fallback.<reason> counter names, in the fixed
/// order the session manifest (.ipses) records them.
constexpr size_t NumVmFallbackReasons = 5;
extern const char *const VmFallbackCounters[NumVmFallbackReasons];

/// Sum of the vm.fallback.* counters in the global MetricsRegistry.
uint64_t vmFallbackTotal();

/// Result of one (possibly fault-injected) execution.
struct ExecutionRecord {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  uint64_t Steps = 0;
  uint64_t ValueSteps = 0;
  uint64_t CriticalPathCycles = 0; ///< steps + comm cost (parallel runs).
  bool FaultInjected = false;
  unsigned FaultedInstructionId = 0;
  /// Verification verdict; meaningful only when Status == Finished.
  bool OutputValid = false;
  /// Engine that actually executed the run (mixed-backend campaigns are
  /// attributable run by run).
  ExecBackend BackendUsed = ExecBackend::Interp;
  /// Non-null (the <reason> suffix of a VmFallbackCounters entry) when
  /// the VM was requested but this run fell back to the interpreter.
  /// Null on native VM runs and when the interpreter was requested.
  const char *FallbackReason = nullptr;
};

/// The per-run choices. The default is a clean, unbounded interpreter
/// run with nothing attached.
struct RunRequest {
  /// Fault to inject; null for a clean run.
  const FaultPlan *Plan = nullptr;
  /// Cumulative step bound (hang detection); UINT64_MAX is unbounded.
  uint64_t StepBudget = UINT64_MAX;
  ExecBackend Backend = ExecBackend::Interp;
  /// Receives every value commit, memory access and control decision
  /// (propagation tracing). Interpreter only.
  ExecObserver *Observer = nullptr;
  /// Cost profiler to arm. Counting mode runs natively on the VM;
  /// context mode is interpreter only.
  CostProfiler *Profiler = nullptr;
  /// When set, receives the producing instruction id of every dynamic
  /// value step (Trace[k] is the target of a plan with
  /// TargetValueStep == k). Interpreter only.
  std::vector<unsigned> *Trace = nullptr;
};

/// One program + input + verification routine, executable under fault
/// injection. Subclasses (fault/FunctionHarness.h,
/// workloads/WorkloadHarness.h) only describe the program; execution is
/// shared.
class ProgramHarness {
public:
  virtual ~ProgramHarness();

  /// The run entry point. Backend choice, in order, for a Vm request:
  /// more than one rank runs on MpiJob (fallback "other"); an observer
  /// ("observer"), a context-mode profiler ("profile_context") or a
  /// value-step trace ("trace") needs the interpreter; a module that
  /// does not compile to bytecode runs on the interpreter ("compile").
  /// Everything else runs on the VM. Multi-rank runs take no plan,
  /// observer, profiler or trace.
  ///
  /// Thread-safe for concurrent calls once the golden output is captured
  /// and the bytecode for \p Layout is compiled — both happen on the
  /// first clean run, which campaigns make serially.
  virtual ExecutionRecord execute(const ModuleLayout &Layout,
                                  const RunRequest &Req);

  /// Interpreter run under \p Plan (null = clean) within \p StepBudget.
  ExecutionRecord execute(const ModuleLayout &Layout, const FaultPlan *Plan,
                          uint64_t StepBudget) {
    return execute(Layout, RunRequest{.Plan = Plan, .StepBudget = StepBudget});
  }

  /// One clean run with value-step tracing; empty when the run did not
  /// finish (the campaign driver then disables injection-site pruning).
  /// \p Requested only decides whether the run counts as a VM fallback.
  std::vector<unsigned>
  traceValueSteps(const ModuleLayout &Layout,
                  ExecBackend Requested = ExecBackend::Interp);

  /// Golden output captured by the first clean run (empty before that).
  /// For programs verified by their return value it holds that value.
  const std::vector<RtValue> &golden() const { return Golden; }

protected:
  /// What a harness supplies: the program under test.
  struct Program {
    std::string Entry;
    /// Entry arguments. When OutputSlots > 0 the engine appends a
    /// pointer to a freshly allocated host output buffer.
    std::vector<RtValue> Args;
    Memory::Config Mem{};
    uint64_t WorkloadSeed = 0x1234abcd;
    /// 8-byte output slots the program writes; 0 means the output is
    /// the return value, compared bit-exactly against the golden.
    uint64_t OutputSlots = 0;
    /// Ranks > 1 run as a SimMPI job on the interpreter; rank 0's
    /// output is canonical.
    int NumRanks = 1;
  };

  explicit ProgramHarness(Program P);

  /// Verification routine for slotted outputs: does \p Output pass
  /// against \p Golden? The first clean run is checked against itself
  /// and becomes the golden when it passes. Default: bitwise equality.
  virtual bool verify(const std::vector<RtValue> &Output,
                      const std::vector<RtValue> &Golden) const;

private:
  ExecutionRecord runInterp(const ModuleLayout &Layout,
                            const RunRequest &Req);
  ExecutionRecord runRanks(const ModuleLayout &Layout, const RunRequest &Req);
  ExecutionRecord runVm(std::unique_ptr<vm::VmContext> Ctx,
                        const ModuleLayout &Layout, const RunRequest &Req);
  /// A pooled VM context for \p Layout (compiled once per layout), or
  /// null when the module or entry does not compile to bytecode.
  std::unique_ptr<vm::VmContext> borrowVm(const ModuleLayout &Layout);
  /// Entry arguments for a fresh interpreter context: Program::Args
  /// plus, for slotted outputs, a host-allocated buffer at \p OutPtr.
  std::vector<RtValue> entryArgs(ExecutionContext &Ctx,
                                 uint64_t &OutPtr) const;
  /// Verdict on a finished run; the first one becomes the golden.
  bool acceptFinished(const ExecutionContext &Ctx, uint64_t OutPtr);
  bool acceptReturn(RtValue V);
  bool acceptOutput(const std::vector<RtValue> &Output);

  const Program Prog;
  std::vector<RtValue> Golden;

  std::mutex VmMutex;
  const ModuleLayout *VmLayout = nullptr;
  std::unique_ptr<vm::VmProgram> VmProg;
  uint32_t VmEntryIndex = 0;
  std::vector<std::unique_ptr<vm::VmContext>> VmPool;
};

} // namespace ipas

#endif // IPAS_FAULT_PROGRAMHARNESS_H
