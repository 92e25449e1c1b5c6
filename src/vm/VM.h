//===- vm/VM.h - Threaded-code VM for campaign execution ------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes vm/Bytecode.h programs with direct-threaded dispatch
/// (computed goto under GCC/Clang, a portable switch otherwise — define
/// IPAS_VM_FORCE_SWITCH to force the fallback). The VM is a drop-in
/// replacement for the interpreter on the campaign hot path and clones
/// its observable semantics exactly: step and value-step accounting,
/// trap conditions, fault-injection sites, output bits — and, when a
/// ProfileHook is armed, counting-mode profiling (per-site counts and
/// per-function stream hashes, bit-identical to the interpreter's).
/// Anything it cannot express (observers, value-step traces,
/// multi-rank MPI) stays on the interpreter — the harness engine falls
/// back per run and tags the record with a vm.fallback reason.
///
/// Two things make it fast:
///  - threaded dispatch over flat pre-decoded instructions with all
///    operands as register indices (no tree walk, no operand switch);
///  - a pooled arena (VmArena) with the interpreter Memory's exact
///    address layout but O(dirty bytes) reset instead of a fresh ~9 MB
///    zero-fill per run — the dominant per-run cost of the interpreter
///    on campaign workloads.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_VM_VM_H
#define IPAS_VM_VM_H

#include "interp/Interpreter.h"
#include "interp/ProfileHook.h"
#include "vm/Bytecode.h"

#include <algorithm>
#include <vector>

namespace ipas {
namespace vm {

/// Flat address space with the same layout, bounds rules and bump
/// allocators as interp/Memory.h (addresses are observable values: a
/// flipped pointer bit must produce the same in/out-of-bounds verdict on
/// either backend). Reset cost is proportional to the bytes actually
/// written, not the arena size, so a pooled context makes back-to-back
/// campaign runs cheap.
class VmArena {
public:
  explicit VmArena(const Memory::Config &Cfg)
      : Data(Memory::GuardBytes + Cfg.StackBytes + Cfg.HeapBytes, 0),
        FirstValid(Memory::GuardBytes),
        Limit(Data.size()),
        StackBase(Memory::GuardBytes),
        StackLimit(StackBase + Cfg.StackBytes),
        StackPtr(StackBase),
        HeapBase(StackLimit),
        HeapPtr(HeapBase),
        DirtyLo(Limit),
        DirtyHi(FirstValid) {}

  /// Rewinds both allocators and re-zeroes every byte written since the
  /// last reset, restoring the freshly-constructed state.
  void reset() {
    if (DirtyHi > DirtyLo)
      std::fill(Data.begin() + static_cast<ptrdiff_t>(DirtyLo),
                Data.begin() + static_cast<ptrdiff_t>(DirtyHi), uint8_t(0));
    DirtyLo = Limit;
    DirtyHi = FirstValid;
    StackPtr = StackBase;
    HeapPtr = HeapBase;
  }

  uint64_t allocaBytes(uint64_t Bytes) {
    Bytes = (Bytes + 7) & ~7ull;
    if (Bytes > StackLimit - StackPtr)
      return 0;
    uint64_t Addr = StackPtr;
    StackPtr += Bytes;
    return Addr;
  }

  uint64_t mallocBytes(uint64_t Bytes) {
    Bytes = (Bytes + 7) & ~7ull;
    if (Bytes == 0)
      Bytes = 8;
    if (Bytes > Limit - HeapPtr)
      return 0;
    uint64_t Addr = HeapPtr;
    HeapPtr += Bytes;
    return Addr;
  }

  uint64_t stackPointer() const { return StackPtr; }
  void restoreStackPointer(uint64_t SP) { StackPtr = SP; }

  bool validRange(uint64_t Addr, uint64_t Size) const {
    return Addr >= FirstValid && Size <= Limit && Addr <= Limit - Size;
  }

  uint64_t read64(uint64_t Addr) const {
    uint64_t V;
    std::memcpy(&V, &Data[Addr], sizeof(V));
    return V;
  }

  /// Unchecked 8-byte store; tracks the dirty span (a faulted pointer
  /// can write anywhere inside the valid range, so every store counts).
  void write64(uint64_t Addr, uint64_t V) {
    std::memcpy(&Data[Addr], &V, sizeof(V));
    DirtyLo = std::min(DirtyLo, Addr);
    DirtyHi = std::max(DirtyHi, Addr + 8);
  }

private:
  std::vector<uint8_t> Data;
  uint64_t FirstValid;
  uint64_t Limit;
  uint64_t StackBase, StackLimit, StackPtr;
  uint64_t HeapBase, HeapPtr;
  uint64_t DirtyLo, DirtyHi;
};

/// Reusable execution state for one VmProgram: arena, register stack and
/// frame stack. run() fully resets the context, so one VmContext can
/// serve thousands of campaign runs back to back; it is not
/// thread-safe — use one context per thread (the ProgramHarness engine
/// keeps a pool).
class VmContext {
public:
  struct Config {
    Memory::Config Mem;
    unsigned MaxCallDepth = 512;
    uint64_t WorkloadRngSeed = 0x1234abcd;
    /// Host output buffer, in 8-byte slots: when nonzero, every run
    /// allocates it right after the arena reset — the same bump
    /// allocation, hence the same address, as
    /// ExecutionContext::hostAlloc on a fresh context — and passes its
    /// address as the entry's last argument. output() reads it back.
    uint64_t OutputSlots = 0;
  };

  struct Result {
    RunStatus Status = RunStatus::Finished;
    TrapKind Trap = TrapKind::None;
    uint64_t Steps = 0;
    uint64_t ValueSteps = 0;
    RtValue ReturnValue;
    bool FaultInjected = false;
    unsigned FaultedInstructionId = 0;
  };

  VmContext(const VmProgram &P, const Config &Cfg);
  explicit VmContext(const VmProgram &P) : VmContext(P, Config()) {}

  /// Executes function \p FnIndex on \p Args under \p Plan (null = clean)
  /// with the interpreter's cumulative step budget semantics: the budget
  /// is checked before every step, phi groups commit atomically.
  ///
  /// \p Prof, when non-null (with SiteCounts set), arms counting-mode
  /// profiling: per-site counts and optional per-function FNV stream
  /// hashes bit-identical to the interpreter's site-count hook +
  /// CostProfiler::onValueCommit. Counts are collected at control-
  /// transfer granularity — the dispatch loop only bumps a per-target
  /// entry counter at branches, calls and returns, and the exact
  /// per-instruction counts are reconstructed afterwards by one linear
  /// walk over the bytecode (straight-line ops execute exactly as often
  /// as control enters their run). The profiled loop is a separate
  /// template instantiation, so passing null costs the unprofiled hot
  /// path nothing.
  Result run(uint32_t FnIndex, const std::vector<RtValue> &Args,
             const FaultPlan *Plan, uint64_t MaxSteps,
             const ProfileHook *Prof = nullptr);

  /// The last run's host output buffer (Config::OutputSlots values).
  std::vector<RtValue> output() const;

private:
  /// Dispatch-loop instantiation selector: profiling off, site counts
  /// only, or site counts + per-commit hash folds. Counting-only gets
  /// its own instantiation because the hash-fold pointers otherwise
  /// stay live across the whole dispatch loop and cost registers in
  /// the hottest handlers even when hashes are disabled.
  enum ProfiledMode { ProfOff = 0, ProfCount = 1, ProfCountHash = 2 };

  template <int Mode>
  Result runImpl(uint32_t FnIndex, const std::vector<RtValue> &Args,
                 const FaultPlan *Plan, uint64_t MaxSteps,
                 const ProfileHook *Prof);

  /// Replays EdgeCounts into exact per-site step counts (+= into
  /// \p SiteCounts, which accumulates across runs like the interpreter
  /// hook). \p ExitPc is the instruction the run stopped at and
  /// \p ExitCounted says whether that final arrival counted its step
  /// (true for traps and clean finishes, false for budget exhaustion
  /// and the call-depth trap, which fire before the step is counted).
  void reconstructCounts(uint64_t *SiteCounts, uint32_t ExitPc,
                         bool ExitCounted) const;
  struct VmFrame {
    const VmFunction *Fn = nullptr;
    uint32_t RegBase = 0;
    uint32_t RetPC = 0;
    uint32_t CallId = 0;
    uint16_t RetReg = kNoReg;
    uint8_t RetWidth = 0;
    uint64_t SavedStackPtr = 0;
  };

  const VmProgram &P;
  Config Cfg;
  VmArena Arena;
  uint64_t OutputAddr = 0;
  std::vector<uint64_t> RegStack;
  std::vector<VmFrame> Frames;
  Rng WorkloadRng;
  /// Profiled runs only: per-bytecode-offset control-transfer entry
  /// tallies, zeroed per run and replayed by reconstructCounts().
  std::vector<uint64_t> EdgeCounts;
};

} // namespace vm
} // namespace ipas

#endif // IPAS_VM_VM_H
