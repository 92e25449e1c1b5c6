//===- interp/Memory.h - Flat bounds-checked memory ------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One flat address space per execution context, split into a stack region
/// (allocas) and a heap region (malloc). All accesses are bounds-checked;
/// an access outside the valid range models the segmentation fault a
/// corrupted pointer produces on real hardware — an *observable symptom*
/// in the paper's outcome taxonomy.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_INTERP_MEMORY_H
#define IPAS_INTERP_MEMORY_H

#include "support/ZeroPages.h"

#include <cstdint>
#include <cstring>

namespace ipas {

class Memory {
public:
  /// Unmapped page at the bottom of the address space; catches null and
  /// near-null pointers. Shared with the VM arena (vm/VM.h), whose
  /// address layout must match this class byte for byte.
  static constexpr uint64_t GuardBytes = 4096;

  struct Config {
    // The region is mapped lazily zeroed (support/ZeroPages.h): a run
    // pays for the pages it touches, not for these sizes. Workloads size
    // their own regions via memoryConfig().
    uint64_t StackBytes = 1ull << 20; ///< 1 MiB stack region.
    uint64_t HeapBytes = 8ull << 20;  ///< 8 MiB heap region.
  };

  explicit Memory(const Config &Cfg);
  Memory(); ///< Default-sized memory.

  /// Bump-allocates \p Bytes on the stack; returns 0 on overflow.
  uint64_t allocaBytes(uint64_t Bytes);

  /// Current stack pointer (for frame save/restore across calls).
  uint64_t stackPointer() const { return StackPtr; }
  void restoreStackPointer(uint64_t SP) { StackPtr = SP; }

  /// Bump-allocates \p Bytes on the heap; returns 0 on exhaustion.
  /// free() is accepted but does not recycle (the workloads allocate
  /// up front, like the paper's mini applications).
  uint64_t mallocBytes(uint64_t Bytes);
  void free(uint64_t Addr);

  /// True when [Addr, Addr+Size) lies fully inside allocated memory.
  bool validRange(uint64_t Addr, uint64_t Size) const {
    return Addr >= FirstValid && Size <= Limit && Addr <= Limit - Size;
  }

  // Unchecked accessors; callers must validate the range first.
  uint64_t read64(uint64_t Addr) const {
    uint64_t V;
    std::memcpy(&V, Pages.data() + Addr, sizeof(V));
    return V;
  }
  void write64(uint64_t Addr, uint64_t V) {
    std::memcpy(Pages.data() + Addr, &V, sizeof(V));
  }
  double readF64(uint64_t Addr) const {
    double V;
    std::memcpy(&V, Pages.data() + Addr, sizeof(V));
    return V;
  }
  void writeF64(uint64_t Addr, double V) {
    std::memcpy(Pages.data() + Addr, &V, sizeof(V));
  }

  uint64_t heapBytesUsed() const { return HeapPtr - HeapBase; }
  uint64_t stackBytesUsed() const { return StackPtr - StackBase; }

private:
  ZeroPages Pages;
  uint64_t FirstValid; ///< Address 0..FirstValid-1 is the unmapped page.
  uint64_t Limit;      ///< One past the last valid byte.
  uint64_t StackBase, StackLimit, StackPtr;
  uint64_t HeapBase, HeapLimit, HeapPtr;
};

} // namespace ipas

#endif // IPAS_INTERP_MEMORY_H
