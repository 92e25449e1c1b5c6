//===- obs/BinCodec.cpp ---------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/BinCodec.h"

#include <cstdio>
#include <utility>

using namespace ipas;
using namespace ipas::obs;

namespace {

constexpr size_t MagicSize = sizeof(StoreMagic);
constexpr size_t HeaderSize = MagicSize + 4 + 8;
constexpr size_t TrailerSize = 8;

bool fail(std::string *Err, std::string Msg) {
  if (Err)
    *Err = std::move(Msg);
  return false;
}

} // namespace

std::string ipas::obs::seal(const StoreMagic &Magic, uint32_t Version,
                            const std::string &Payload) {
  std::string Out;
  Out.reserve(HeaderSize + Payload.size() + TrailerSize);
  Out.append(Magic, MagicSize);
  Encoder E(Out);
  E.u32(Version);
  E.u64(Payload.size());
  Out.append(Payload);
  E.u64(fnv1a(Payload.data(), Payload.size()));
  return Out;
}

bool ipas::obs::unseal(const std::string &Bytes, const StoreMagic &Magic,
                       uint32_t MaxVersion, const char *KindName,
                       uint32_t &Version, const char *&Payload,
                       size_t &PayloadLen, std::string *Err) {
  const std::string Kind = KindName;
  if (Bytes.size() < HeaderSize)
    return fail(Err, "not a " + Kind + " (file too small)");
  if (std::memcmp(Bytes.data(), Magic, MagicSize) != 0)
    return fail(Err, "not a " + Kind + " (bad magic)");
  Decoder H(Bytes.data() + MagicSize, HeaderSize - MagicSize);
  Version = H.u32();
  if (Version == 0 || Version > MaxVersion)
    return fail(Err, "unsupported " + Kind + " version " +
                         std::to_string(Version) +
                         " (reader supports up to " +
                         std::to_string(MaxVersion) + ")");
  uint64_t Len = H.u64();
  if (Bytes.size() < HeaderSize + TrailerSize ||
      Bytes.size() - HeaderSize - TrailerSize != Len)
    return fail(Err, Kind + " truncated (header promises " +
                         std::to_string(Len) + " payload bytes)");
  Payload = Bytes.data() + HeaderSize;
  PayloadLen = static_cast<size_t>(Len);
  Decoder T(Payload + PayloadLen, TrailerSize);
  if (fnv1a(Payload, PayloadLen) != T.u64())
    return fail(Err, Kind + " checksum mismatch (corrupt file)");
  return true;
}

bool ipas::obs::readFile(const std::string &Path, std::string &Out,
                         std::string *Err) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return fail(Err, "cannot open '" + Path + "'");
  Out.clear();
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool ReadOk = !std::ferror(F);
  std::fclose(F);
  return ReadOk || fail(Err, "read error on '" + Path + "'");
}

bool ipas::obs::writeFile(const std::string &Path, const std::string &Bytes,
                          std::string *Err) {
  std::string Tmp = Path + ".tmp";
  FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return fail(Err, "cannot open '" + Path + "' for writing");
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok)
    fail(Err, "short write to '" + Path + "'");
  else if (std::rename(Tmp.c_str(), Path.c_str()) != 0)
    Ok = fail(Err, "cannot rename '" + Tmp + "' onto '" + Path + "'");
  if (!Ok)
    std::remove(Tmp.c_str());
  return Ok;
}
