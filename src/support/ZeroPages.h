//===- support/ZeroPages.h - Lazily zeroed, mmap-backed byte region --------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backing store of both execution engines' address spaces
/// (interp/Memory.h, vm/VM.h). An anonymous private mapping reads as
/// zeros from the start, and the OS backs a page with memory only when
/// it is first written: creating a region costs one mmap, not a
/// zero-fill, and resident memory follows the pages a program actually
/// touches, not the configured size.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_SUPPORT_ZEROPAGES_H
#define IPAS_SUPPORT_ZEROPAGES_H

#include <cstddef>
#include <cstdint>

namespace ipas {

class ZeroPages {
public:
  /// Granule of dirty-page tracking (VmArena). A multiple of it never
  /// straddles a page of the mapping.
  static constexpr uint64_t PageBytes = 4096;

  /// Maps \p Bytes of zeros; throws std::bad_alloc when the mapping fails.
  explicit ZeroPages(uint64_t Bytes);
  ~ZeroPages();

  ZeroPages(const ZeroPages &) = delete;
  ZeroPages &operator=(const ZeroPages &) = delete;

  uint8_t *data() { return Base; }
  const uint8_t *data() const { return Base; }
  uint64_t size() const { return Bytes; }
  /// Number of PageBytes granules, the last one possibly partial.
  uint64_t numPages() const { return (Bytes + PageBytes - 1) / PageBytes; }

  /// Zeroes granule \p Page (it stays mapped).
  void zeroPage(uint64_t Page);

  /// Pages of the region the OS currently backs with memory (mincore).
  size_t residentPages() const;

private:
  uint8_t *Base = nullptr;
  uint64_t Bytes = 0;
};

} // namespace ipas

#endif // IPAS_SUPPORT_ZEROPAGES_H
