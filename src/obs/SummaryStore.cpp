//===- obs/SummaryStore.cpp -----------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The file is a sealed container (obs/BinCodec.h) with magic "IPASSUM\0"
// and version 1; the payload schema is serializePayload below.
//
//===----------------------------------------------------------------------===//

#include "obs/SummaryStore.h"

#include "obs/BinCodec.h"

using namespace ipas;
using namespace ipas::obs;

namespace {

constexpr char Magic[8] = {'I', 'P', 'A', 'S', 'S', 'U', 'M', '\0'};

void serializePayload(const SummaryStore &S, Encoder &E) {
  E.str(S.ModuleName);
  E.str(S.EntryFunction);
  E.u64(S.Functions.size());
  for (const SummaryFunc &F : S.Functions) {
    E.str(F.Name);
    E.u64(F.ContentHash);
    E.u64(F.ReachableHash);
    E.u64(F.Callees.size());
    for (const std::string &C : F.Callees)
      E.str(C);
    E.u64(F.Args.size());
    for (const SummaryArg &A : F.Args) {
      E.u32(A.SinkMask);
      E.u8(A.FlowsToReturn);
      E.u32(A.MinSinkDistance);
    }
  }
}

bool parsePayload(SummaryStore &S, Decoder &D, std::string *Err) {
  S.ModuleName = D.str();
  S.EntryFunction = D.str();
  S.Functions.resize(D.count(4 + 8 + 8 + 8 + 8));
  for (SummaryFunc &F : S.Functions) {
    F.Name = D.str();
    F.ContentHash = D.u64();
    F.ReachableHash = D.u64();
    F.Callees.resize(D.count(4));
    for (std::string &C : F.Callees)
      C = D.str();
    F.Args.resize(D.count(4 + 1 + 4));
    for (SummaryArg &A : F.Args) {
      A.SinkMask = D.u32();
      A.FlowsToReturn = D.u8();
      A.MinSinkDistance = D.u32();
    }
  }
  return D.finish("summary store", Err);
}

} // namespace

void ipas::obs::serializeSummaryStore(const SummaryStore &S, std::string &Out) {
  std::string Payload;
  Encoder E(Payload);
  serializePayload(S, E);
  Out = seal(Magic, SummaryStoreVersion, Payload);
}

bool ipas::obs::writeSummaryStore(const SummaryStore &S,
                                  const std::string &Path, std::string *Err) {
  std::string Bytes;
  serializeSummaryStore(S, Bytes);
  return writeFile(Path, Bytes, Err);
}

bool ipas::obs::parseSummaryStore(SummaryStore &S, const std::string &Data,
                                  std::string *Err) {
  uint32_t Version = 0;
  const char *Payload = nullptr;
  size_t Len = 0;
  if (!unseal(Data, Magic, SummaryStoreVersion, "summary store", Version,
              Payload, Len, Err))
    return false;
  Decoder D(Payload, Len);
  return parsePayload(S, D, Err);
}

bool ipas::obs::readSummaryStore(SummaryStore &S, const std::string &Path,
                                 std::string *Err) {
  std::string Data;
  return readFile(Path, Data, Err) && parseSummaryStore(S, Data, Err);
}
