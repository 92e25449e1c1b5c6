//===- support/ZeroPages.cpp ------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ZeroPages.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <sys/mman.h>
#include <unistd.h>
#include <vector>

using namespace ipas;

ZeroPages::ZeroPages(uint64_t Size) : Bytes(Size) {
  if (!Bytes)
    return;
  void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  // One stray store must cost one small page, never a huge one.
  madvise(P, Bytes, MADV_NOHUGEPAGE);
  Base = static_cast<uint8_t *>(P);
}

ZeroPages::~ZeroPages() {
  if (Base)
    munmap(Base, Bytes);
}

void ZeroPages::zeroPage(uint64_t Page) {
  uint64_t Begin = Page * PageBytes;
  std::memset(Base + Begin, 0, std::min(PageBytes, Bytes - Begin));
}

size_t ZeroPages::residentPages() const {
  if (!Base)
    return 0;
  size_t OsPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> InCore((Bytes + OsPage - 1) / OsPage);
  if (mincore(Base, Bytes, InCore.data()) != 0)
    return 0;
  return static_cast<size_t>(
      std::count_if(InCore.begin(), InCore.end(),
                    [](unsigned char C) { return C & 1; }));
}
