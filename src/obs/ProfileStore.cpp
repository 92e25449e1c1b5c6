//===- obs/ProfileStore.cpp ---------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The file is a sealed container (obs/BinCodec.h) with magic "IPASPROF"
// and version 1; the payload schema is serializePayload below.
//
//===----------------------------------------------------------------------===//

#include "obs/ProfileStore.h"

#include "obs/BinCodec.h"

using namespace ipas;
using namespace ipas::obs;

namespace {

constexpr char Magic[8] = {'I', 'P', 'A', 'S', 'P', 'R', 'O', 'F'};

void serializePayload(const ProfileStore &S, Encoder &E) {
  E.str(S.ModuleName);
  E.str(S.EntryFunction);
  E.str(S.Label);
  E.str(S.SourceText);
  E.u8(S.Mode);
  E.u64(S.CleanSteps);
  E.u64(S.TotalCycles);
  E.u8(S.HasOverhead);
  E.u64(S.BaselineTotalCycles);
  E.u64(S.CostModelCycles.size());
  for (uint32_t C : S.CostModelCycles)
    E.u32(C);
  E.u64(S.Functions.size());
  for (const std::string &F : S.Functions)
    E.str(F);
  E.u64(S.Instructions.size());
  for (const ProfInstr &I : S.Instructions) {
    E.u32(I.Id);
    E.u8(I.Opcode);
    E.u8(I.DupRole);
    E.u32(I.Line);
    E.u32(I.Col);
    E.u32(I.FunctionIndex);
    E.u64(I.ExecCount);
    E.u64(I.Cycles);
  }
  E.u64(S.Contexts.size());
  for (const ProfContext &C : S.Contexts) {
    E.u32(C.Id);
    E.u32(C.Parent);
    E.u32(C.FunctionIndex);
    E.u64(C.Steps);
    E.u64(C.Cycles);
  }
  E.u64(S.LineCosts.size());
  for (const ProfLineCost &L : S.LineCosts) {
    E.u32(L.ContextId);
    E.u32(L.FunctionIndex);
    E.u32(L.Line);
    E.u64(L.Count);
    E.u64(L.Cycles);
  }
  E.u64(S.Overheads.size());
  for (const ProfSiteOverhead &O : S.Overheads) {
    E.u32(O.SiteId);
    E.u8(O.Opcode);
    E.u8(O.Protected_);
    E.u32(O.Line);
    E.u32(O.Col);
    E.u32(O.FunctionIndex);
    E.u64(O.BaseCycles);
    E.u64(O.ProtCycles);
    E.u64(O.ShadowCycles);
    E.u64(O.CheckCycles);
  }
}

bool parsePayload(ProfileStore &S, Decoder &D, std::string *Err) {
  S.ModuleName = D.str();
  S.EntryFunction = D.str();
  S.Label = D.str();
  S.SourceText = D.str();
  S.Mode = D.u8();
  S.CleanSteps = D.u64();
  S.TotalCycles = D.u64();
  S.HasOverhead = D.u8();
  S.BaselineTotalCycles = D.u64();
  S.CostModelCycles.resize(D.count(4));
  for (uint32_t &C : S.CostModelCycles)
    C = D.u32();
  S.Functions.resize(D.count(4));
  for (std::string &F : S.Functions)
    F = D.str();
  S.Instructions.resize(D.count(4 + 1 + 1 + 4 + 4 + 4 + 8 + 8));
  for (ProfInstr &I : S.Instructions) {
    I.Id = D.u32();
    I.Opcode = D.u8();
    I.DupRole = D.u8();
    I.Line = D.u32();
    I.Col = D.u32();
    I.FunctionIndex = D.u32();
    I.ExecCount = D.u64();
    I.Cycles = D.u64();
  }
  S.Contexts.resize(D.count(4 + 4 + 4 + 8 + 8));
  for (ProfContext &C : S.Contexts) {
    C.Id = D.u32();
    C.Parent = D.u32();
    C.FunctionIndex = D.u32();
    C.Steps = D.u64();
    C.Cycles = D.u64();
  }
  S.LineCosts.resize(D.count(4 + 4 + 4 + 8 + 8));
  for (ProfLineCost &L : S.LineCosts) {
    L.ContextId = D.u32();
    L.FunctionIndex = D.u32();
    L.Line = D.u32();
    L.Count = D.u64();
    L.Cycles = D.u64();
  }
  S.Overheads.resize(D.count(4 + 1 + 1 + 4 + 4 + 4 + 4 * 8));
  for (ProfSiteOverhead &O : S.Overheads) {
    O.SiteId = D.u32();
    O.Opcode = D.u8();
    O.Protected_ = D.u8();
    O.Line = D.u32();
    O.Col = D.u32();
    O.FunctionIndex = D.u32();
    O.BaseCycles = D.u64();
    O.ProtCycles = D.u64();
    O.ShadowCycles = D.u64();
    O.CheckCycles = D.u64();
  }
  return D.finish("profile store", Err);
}

} // namespace

void ipas::obs::serializeProfileStore(const ProfileStore &S, std::string &Out) {
  std::string Payload;
  Encoder E(Payload);
  serializePayload(S, E);
  Out = seal(Magic, ProfileStoreVersion, Payload);
}

bool ipas::obs::writeProfileStore(const ProfileStore &S,
                                  const std::string &Path, std::string *Err) {
  std::string Bytes;
  serializeProfileStore(S, Bytes);
  return writeFile(Path, Bytes, Err);
}

bool ipas::obs::parseProfileStore(ProfileStore &S, const std::string &Data,
                                  std::string *Err) {
  uint32_t Version = 0;
  const char *Payload = nullptr;
  size_t Len = 0;
  if (!unseal(Data, Magic, ProfileStoreVersion, "profile store", Version,
              Payload, Len, Err))
    return false;
  Decoder D(Payload, Len);
  return parsePayload(S, D, Err);
}

bool ipas::obs::readProfileStore(ProfileStore &S, const std::string &Path,
                                 std::string *Err) {
  std::string Data;
  return readFile(Path, Data, Err) && parseProfileStore(S, Data, Err);
}
