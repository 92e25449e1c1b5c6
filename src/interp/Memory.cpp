//===- interp/Memory.cpp -------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Memory.h"

using namespace ipas;

Memory::Memory() : Memory(Config()) {}

Memory::Memory(const Config &Cfg)
    : Pages(GuardBytes + Cfg.StackBytes + Cfg.HeapBytes) {
  uint64_t Total = Pages.size();
  FirstValid = GuardBytes;
  Limit = Total;
  StackBase = GuardBytes;
  StackLimit = StackBase + Cfg.StackBytes;
  StackPtr = StackBase;
  HeapBase = StackLimit;
  HeapLimit = Total;
  HeapPtr = HeapBase;
}

uint64_t Memory::allocaBytes(uint64_t Bytes) {
  // Keep 8-byte alignment.
  Bytes = (Bytes + 7) & ~7ull;
  if (Bytes > StackLimit - StackPtr)
    return 0;
  uint64_t Addr = StackPtr;
  StackPtr += Bytes;
  return Addr;
}

uint64_t Memory::mallocBytes(uint64_t Bytes) {
  Bytes = (Bytes + 7) & ~7ull;
  if (Bytes == 0)
    Bytes = 8;
  if (Bytes > HeapLimit - HeapPtr)
    return 0;
  uint64_t Addr = HeapPtr;
  HeapPtr += Bytes;
  return Addr;
}

void Memory::free(uint64_t) {
  // Bump allocator: no recycling (documented in the header).
}
