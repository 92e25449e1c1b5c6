//===- obs/BinCodec.h - Little-endian byte codec for versioned stores -----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The codec shared by every on-disk store in the obs layer (`.iprec`
/// campaign records, `.ipprof` cost profiles, `.ipprop` propagation
/// stores, `.ipsum` summaries and `.ipses` session manifests): the
/// little-endian Encoder/Decoder pair, the FNV-1a checksum, the sealed
/// container every store wraps its payload in, and whole-file read and
/// crash-safe write.
///
/// The Encoder/Decoder are kept deliberately dumb: integers are packed
/// byte by byte, strings are u32 length + bytes, doubles travel as their
/// IEEE-754 bit pattern in a u64 so round trips are bit-exact (including
/// NaNs and signed zeros). The decoder never throws — it latches a
/// failure flag and returns zeros, and `count()` rejects container sizes
/// that could not possibly fit in the remaining bytes so a corrupt count
/// fails cleanly instead of allocating.
///
/// Sealed container layout (all integers little-endian):
///
///   offset  size  field
///   0       8     magic (per store, e.g. "IPASREC\0", "IPASPROF")
///   8       4     version (u32, 1..the store's current version)
///   12      8     payload length N (u64)
///   20      N     payload (the store's own schema)
///   20+N    8     FNV-1a 64 checksum of the payload bytes
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_OBS_BINCODEC_H
#define IPAS_OBS_BINCODEC_H

#include <cstdint>
#include <cstring>
#include <string>

namespace ipas {
namespace obs {

constexpr uint64_t FnvOffset = 1469598103934665603ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

inline uint64_t fnv1a(const char *Data, size_t Len) {
  uint64_t H = FnvOffset;
  for (size_t I = 0; I != Len; ++I) {
    H ^= static_cast<unsigned char>(Data[I]);
    H *= FnvPrime;
  }
  return H;
}

/// Appends little-endian fields to a byte string.
class Encoder {
public:
  explicit Encoder(std::string &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.append(S);
  }

private:
  std::string &Out;
};

/// Reads little-endian fields from a byte buffer; latches failure on
/// truncation instead of throwing.
class Decoder {
public:
  Decoder(const char *Data, size_t Len) : Data(Data), Len(Len) {}

  bool ok() const { return !Failed; }
  bool atEnd() const { return Pos == Len; }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return static_cast<uint8_t>(Data[Pos++]);
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(static_cast<unsigned char>(Data[Pos + I]))
           << (8 * I);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(Data[Pos + I]))
           << (8 * I);
    Pos += 8;
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return std::string();
    std::string S(Data + Pos, N);
    Pos += N;
    return S;
  }
  /// Checks that the payload decoded cleanly and completely; on failure
  /// sets \p Err to "<KindName> payload truncated or corrupt" or
  /// "<KindName> payload has trailing bytes".
  bool finish(const char *KindName, std::string *Err) const {
    const char *Problem = !ok()      ? " payload truncated or corrupt"
                          : !atEnd() ? " payload has trailing bytes"
                                     : nullptr;
    if (Problem && Err)
      *Err = std::string(KindName) + Problem;
    return !Problem;
  }
  /// A count that is about to size a container: reject values that could
  /// not possibly fit in the remaining bytes (at least one byte per
  /// element) so a corrupt count fails cleanly instead of allocating.
  uint64_t count(size_t MinElemSize) {
    uint64_t N = u64();
    if (ok() && MinElemSize > 0 && N > (Len - Pos) / MinElemSize)
      Failed = true;
    return Failed ? 0 : N;
  }

private:
  bool need(size_t N) {
    if (Failed || Len - Pos < N) {
      Failed = true;
      return false;
    }
    return true;
  }

  const char *Data;
  size_t Len;
  size_t Pos = 0;
  bool Failed = false;
};

/// A store's magic: exactly 8 bytes, not NUL-terminated.
using StoreMagic = char[8];

/// Wraps \p Payload in the sealed container: magic, \p Version, payload
/// length, payload, FNV-1a trailer.
std::string seal(const StoreMagic &Magic, uint32_t Version,
                 const std::string &Payload);

/// Checks the container \p Bytes and, on success, sets \p Version and
/// points \p Payload / \p PayloadLen into \p Bytes (no copy). Rejects a
/// short file, bad magic, version 0 or above \p MaxVersion, a length
/// that does not match the file size exactly, and a checksum mismatch;
/// each diagnostic names the store as \p KindName ("record store",
/// "session manifest", ...).
bool unseal(const std::string &Bytes, const StoreMagic &Magic,
            uint32_t MaxVersion, const char *KindName, uint32_t &Version,
            const char *&Payload, size_t &PayloadLen, std::string *Err);

/// Reads all of \p Path into \p Out.
bool readFile(const std::string &Path, std::string &Out,
              std::string *Err = nullptr);

/// Replaces \p Path with \p Bytes atomically with respect to a process
/// crash or kill: the bytes go to `<Path>.tmp` in the same directory,
/// which is then renamed onto \p Path, so a reader sees either the old
/// file or the complete new one. The temp file is removed on any failure.
/// There is deliberately no fsync: a campaign writes many small stores
/// (the adhoc-vm benchmark writes about 18 per iteration) and durability
/// against power loss is not a goal. Concurrent writers of one path are
/// not coordinated.
bool writeFile(const std::string &Path, const std::string &Bytes,
               std::string *Err = nullptr);

} // namespace obs
} // namespace ipas

#endif // IPAS_OBS_BINCODEC_H
