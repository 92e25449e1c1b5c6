//===- fault/ProgramHarness.cpp -----------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/ProgramHarness.h"

#include "interp/CostProfiler.h"
#include "ir/Module.h"
#include "mpi/SimMpi.h"
#include "obs/Metrics.h"
#include "vm/VM.h"

#include <algorithm>

using namespace ipas;

const char *ipas::backendName(ExecBackend B) {
  return B == ExecBackend::Vm ? "vm" : "interp";
}

//===----------------------------------------------------------------------===//
// VM fallback reasons
//===----------------------------------------------------------------------===//

namespace {

/// Indexes VmFallbackCounters.
enum FallbackReason { Compile, Observer, ProfileContext, Trace, Other };

constexpr size_t FallbackPrefixLen = sizeof("vm.fallback.") - 1;

} // namespace

const char *const ipas::VmFallbackCounters[NumVmFallbackReasons] = {
    "vm.fallback.compile", "vm.fallback.observer",
    "vm.fallback.profile_context", "vm.fallback.trace", "vm.fallback.other"};

/// Pre-resolved counter handles: the registry lookup is a string hash we
/// pay once per process, not once per fallback (a campaign whose module
/// does not compile falls back on every run).
static obs::Counter &fallbackCounter(size_t Reason) {
  static obs::Counter *const *Handles = [] {
    static obs::Counter *H[NumVmFallbackReasons];
    for (size_t K = 0; K != NumVmFallbackReasons; ++K)
      H[K] = &obs::MetricsRegistry::global().counter(VmFallbackCounters[K]);
    return H;
  }();
  return *Handles[Reason];
}

/// Counts one fallback and returns its reason for the ExecutionRecord.
static const char *noteVmFallback(FallbackReason Reason) {
  fallbackCounter(Reason).inc();
  return VmFallbackCounters[Reason] + FallbackPrefixLen;
}

uint64_t ipas::vmFallbackTotal() {
  uint64_t Total = 0;
  for (size_t K = 0; K != NumVmFallbackReasons; ++K)
    Total += fallbackCounter(K).value();
  return Total;
}

//===----------------------------------------------------------------------===//
// The engine
//===----------------------------------------------------------------------===//

ProgramHarness::ProgramHarness(Program P) : Prog(std::move(P)) {}

ProgramHarness::~ProgramHarness() = default;

bool ProgramHarness::verify(const std::vector<RtValue> &Output,
                            const std::vector<RtValue> &Gold) const {
  return std::equal(Output.begin(), Output.end(), Gold.begin(), Gold.end(),
                    [](RtValue A, RtValue B) { return A.Bits == B.Bits; });
}

bool ProgramHarness::acceptReturn(RtValue V) {
  if (Golden.empty()) {
    Golden.push_back(V);
    return true;
  }
  return V.Bits == Golden[0].Bits;
}

bool ProgramHarness::acceptOutput(const std::vector<RtValue> &Output) {
  if (Output.empty())
    return false;
  if (!Golden.empty())
    return verify(Output, Golden);
  // First clean run: the output becomes the golden reference, but it
  // must still satisfy the program's own invariants.
  if (!verify(Output, Output))
    return false;
  Golden = Output;
  return true;
}

std::vector<unsigned>
ProgramHarness::traceValueSteps(const ModuleLayout &Layout,
                                ExecBackend Requested) {
  std::vector<unsigned> Trace;
  RunRequest Req{.Backend = Requested, .Trace = &Trace};
  if (execute(Layout, Req).Status != RunStatus::Finished)
    Trace.clear(); // tracing failed: disable pruning rather than misprune
  return Trace;
}

ExecutionRecord ProgramHarness::execute(const ModuleLayout &Layout,
                                        const RunRequest &Req) {
  if (Req.Backend != ExecBackend::Vm)
    return Prog.NumRanks > 1 ? runRanks(Layout, Req) : runInterp(Layout, Req);

  FallbackReason Why;
  if (Prog.NumRanks > 1)
    Why = Other;
  else if (Req.Observer)
    Why = Observer;
  else if (Req.Profiler &&
           Req.Profiler->mode() != CostProfiler::Mode::Counting)
    Why = ProfileContext;
  else if (Req.Trace)
    Why = Trace;
  else if (std::unique_ptr<vm::VmContext> Ctx = borrowVm(Layout))
    return runVm(std::move(Ctx), Layout, Req);
  else
    Why = Compile;
  ExecutionRecord R =
      Prog.NumRanks > 1 ? runRanks(Layout, Req) : runInterp(Layout, Req);
  R.FallbackReason = noteVmFallback(Why);
  return R;
}

std::unique_ptr<vm::VmContext>
ProgramHarness::borrowVm(const ModuleLayout &Layout) {
  {
    std::lock_guard<std::mutex> Lock(VmMutex);
    if (VmLayout != &Layout) {
      VmLayout = &Layout;
      VmPool.clear();
      VmProg = vm::compile(Layout);
      if (VmProg) {
        VmEntryIndex = VmProg->indexOf(Prog.Entry);
        if (VmEntryIndex == UINT32_MAX)
          VmProg.reset(); // entry missing: fall back to the interpreter
      }
    }
    if (!VmProg)
      return nullptr;
    if (!VmPool.empty()) {
      std::unique_ptr<vm::VmContext> Ctx = std::move(VmPool.back());
      VmPool.pop_back();
      return Ctx;
    }
  }
  // One context per concurrently running thread; contexts are reusable
  // because VmContext::run() fully resets them.
  vm::VmContext::Config Cfg;
  Cfg.Mem = Prog.Mem;
  Cfg.WorkloadRngSeed = Prog.WorkloadSeed;
  Cfg.OutputSlots = Prog.OutputSlots;
  return std::make_unique<vm::VmContext>(*VmProg, Cfg);
}

ExecutionRecord ProgramHarness::runVm(std::unique_ptr<vm::VmContext> Ctx,
                                      const ModuleLayout &Layout,
                                      const RunRequest &Req) {
  // Counting-mode profiling runs natively in the VM dispatch loop:
  // counts and stream hashes land in the profiler's own buffers,
  // bit-identical to the interpreter hook.
  ProfileHook Hook;
  if (Req.Profiler)
    Hook = Req.Profiler->countingHook(Layout.module().getFunction(Prog.Entry));
  vm::VmContext::Result V =
      Ctx->run(VmEntryIndex, Prog.Args, Req.Plan, Req.StepBudget,
               Req.Profiler ? &Hook : nullptr);

  ExecutionRecord R;
  R.BackendUsed = ExecBackend::Vm;
  R.Status = V.Status;
  R.Trap = V.Trap;
  R.Steps = V.Steps;
  R.ValueSteps = V.ValueSteps;
  R.CriticalPathCycles = V.Steps;
  R.FaultInjected = V.FaultInjected;
  R.FaultedInstructionId = V.FaultedInstructionId;
  if (V.Status == RunStatus::Finished)
    R.OutputValid = Prog.OutputSlots ? acceptOutput(Ctx->output())
                                     : acceptReturn(V.ReturnValue);

  std::lock_guard<std::mutex> Lock(VmMutex);
  VmPool.push_back(std::move(Ctx));
  return R;
}

std::vector<RtValue> ProgramHarness::entryArgs(ExecutionContext &Ctx,
                                               uint64_t &OutPtr) const {
  std::vector<RtValue> Args = Prog.Args;
  if (Prog.OutputSlots) {
    OutPtr = Ctx.hostAlloc(Prog.OutputSlots);
    assert(OutPtr && "host output allocation failed: enlarge heap config");
    Args.push_back(RtValue::fromPtr(OutPtr));
  }
  return Args;
}

bool ProgramHarness::acceptFinished(const ExecutionContext &Ctx,
                                    uint64_t OutPtr) {
  if (!Prog.OutputSlots)
    return acceptReturn(Ctx.returnValue());
  // An invalid range leaves the output empty, which fails the verdict.
  std::vector<RtValue> Out;
  const Memory &Mem = Ctx.memory();
  if (Mem.validRange(OutPtr, Prog.OutputSlots * 8)) {
    Out.resize(Prog.OutputSlots);
    for (uint64_t K = 0; K != Prog.OutputSlots; ++K)
      Out[K].Bits = Mem.read64(OutPtr + K * 8);
  }
  return acceptOutput(Out);
}

ExecutionRecord ProgramHarness::runInterp(const ModuleLayout &Layout,
                                          const RunRequest &Req) {
  const Function *Entry = Layout.module().getFunction(Prog.Entry);
  assert(Entry && "harness entry function not found");

  ExecutionContext::Config Cfg;
  Cfg.Mem = Prog.Mem;
  Cfg.WorkloadRngSeed = Prog.WorkloadSeed;
  ExecutionContext Ctx(Layout, Cfg);
  if (Req.Plan)
    Ctx.setFaultPlan(*Req.Plan);
  if (Req.Trace)
    Ctx.setValueStepTrace(Req.Trace);
  if (Req.Observer)
    Ctx.setObserver(Req.Observer);
  if (Req.Profiler)
    Req.Profiler->attach(Ctx, Entry); // site counts (+observer if needed)
  uint64_t OutPtr = 0;
  Ctx.start(Entry, entryArgs(Ctx, OutPtr));
  RunStatus S = Ctx.run(Req.StepBudget);

  ExecutionRecord R;
  R.Status = S;
  R.Trap = Ctx.trap();
  R.Steps = Ctx.steps();
  R.ValueSteps = Ctx.valueSteps();
  R.CriticalPathCycles = Ctx.steps() + Ctx.commCost();
  R.FaultInjected = Ctx.faultWasInjected();
  R.FaultedInstructionId = Ctx.faultedInstructionId();
  if (S == RunStatus::Finished)
    R.OutputValid = acceptFinished(Ctx, OutPtr);
  return R;
}

ExecutionRecord ProgramHarness::runRanks(const ModuleLayout &Layout,
                                         const RunRequest &Req) {
  assert(!Req.Plan && !Req.Observer && !Req.Profiler && !Req.Trace &&
         "multi-rank runs take a step budget only (coverage campaigns "
         "are serial)");
  const Function *Entry = Layout.module().getFunction(Prog.Entry);
  assert(Entry && "harness entry function not found");

  MpiJob::Config JobCfg;
  JobCfg.NumRanks = Prog.NumRanks;
  JobCfg.Rank.Mem = Prog.Mem;
  JobCfg.Rank.WorkloadRngSeed = Prog.WorkloadSeed;
  JobCfg.StepBudgetPerRank = Req.StepBudget;
  MpiJob Job(Layout, JobCfg);
  std::vector<uint64_t> OutPtrs(static_cast<size_t>(Prog.NumRanks), 0);
  Job.start(Entry, [&](ExecutionContext &Ctx, int Rank) {
    return entryArgs(Ctx, OutPtrs[static_cast<size_t>(Rank)]);
  });
  JobResult JR = Job.run();

  ExecutionRecord R;
  R.Status = JR.Status;
  R.Trap = JR.Trap;
  R.Steps = JR.TotalSteps;
  R.ValueSteps = Job.rank(0).valueSteps();
  R.CriticalPathCycles = JR.CriticalPathCycles;
  // Rank 0's output is canonical (every rank assembles the full result).
  if (JR.Status == RunStatus::Finished)
    R.OutputValid = acceptFinished(Job.rank(0), OutPtrs[0]);
  return R;
}
