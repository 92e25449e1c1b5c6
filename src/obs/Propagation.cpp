//===- obs/Propagation.cpp ----------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The file is a sealed container (obs/BinCodec.h) with magic "IPASPROP"
// and version 1; the payload schema is serializePayload below.
//
//===----------------------------------------------------------------------===//

#include "obs/Propagation.h"

#include "obs/BinCodec.h"

using namespace ipas;
using namespace ipas::obs;

namespace {

constexpr char Magic[8] = {'I', 'P', 'A', 'S', 'P', 'R', 'O', 'P'};

void serializePayload(const PropagationStore &S, Encoder &E) {
  E.str(S.ModuleName);
  E.str(S.EntryFunction);
  E.str(S.Label);
  E.u64(S.Seed);
  E.u64(S.SampleEvery);
  E.u64(S.TotalRuns);
  E.u64(S.CleanSteps);
  E.u64(S.CleanValueSteps);
  E.u64(S.Functions.size());
  for (const std::string &F : S.Functions)
    E.str(F);
  E.u64(S.Instructions.size());
  for (const PropInstr &I : S.Instructions) {
    E.u32(I.Id);
    E.u8(I.Opcode);
    E.u8(I.StaticBenign);
    E.u8(I.Predicted);
    E.u32(I.Line);
    E.u32(I.Col);
    E.u32(I.FunctionIndex);
    E.u32(I.StaticSinkMask);
  }
  E.u64(S.Records.size());
  for (const PropRecord &R : S.Records) {
    E.u64(R.RunIndex);
    E.u32(R.InstructionId);
    E.u32(R.BitIndex);
    E.u64(R.TargetValueStep);
    E.u8(R.Outcome);
    E.u8(R.ControlDiverged);
    E.u32(R.DynReachMask);
    E.u32(R.PropagationDepth);
    E.u64(R.CorruptedValues);
    E.u64(R.InjectionStep);
    E.u64(R.FirstOutputStep);
    E.u64(R.MaskedLogical);
    E.u64(R.MaskedOverwrite);
    E.u64(R.MaskedDead);
    E.u64(R.Edges.size());
    for (const PropEdge &Ed : R.Edges) {
      E.u32(Ed.SrcId);
      E.u32(Ed.DstId);
      E.u8(Ed.Kind);
      E.u32(Ed.Count);
    }
    E.u64(R.Masks.size());
    for (const PropMaskEvent &M : R.Masks) {
      E.u8(M.Opcode);
      E.u8(M.Kind);
      E.u32(M.Count);
    }
  }
}

bool parsePayload(PropagationStore &S, Decoder &D, std::string *Err) {
  S.ModuleName = D.str();
  S.EntryFunction = D.str();
  S.Label = D.str();
  S.Seed = D.u64();
  S.SampleEvery = D.u64();
  S.TotalRuns = D.u64();
  S.CleanSteps = D.u64();
  S.CleanValueSteps = D.u64();
  S.Functions.resize(D.count(4));
  for (std::string &F : S.Functions)
    F = D.str();
  S.Instructions.resize(D.count(4 + 1 + 1 + 1 + 4 + 4 + 4 + 4));
  for (PropInstr &I : S.Instructions) {
    I.Id = D.u32();
    I.Opcode = D.u8();
    I.StaticBenign = D.u8();
    I.Predicted = D.u8();
    I.Line = D.u32();
    I.Col = D.u32();
    I.FunctionIndex = D.u32();
    I.StaticSinkMask = D.u32();
  }
  // Fixed portion of a PropRecord (everything before the two vectors).
  S.Records.resize(D.count(8 + 4 + 4 + 8 + 1 + 1 + 4 + 4 + 7 * 8 + 8));
  for (PropRecord &R : S.Records) {
    R.RunIndex = D.u64();
    R.InstructionId = D.u32();
    R.BitIndex = D.u32();
    R.TargetValueStep = D.u64();
    R.Outcome = D.u8();
    R.ControlDiverged = D.u8();
    R.DynReachMask = D.u32();
    R.PropagationDepth = D.u32();
    R.CorruptedValues = D.u64();
    R.InjectionStep = D.u64();
    R.FirstOutputStep = D.u64();
    R.MaskedLogical = D.u64();
    R.MaskedOverwrite = D.u64();
    R.MaskedDead = D.u64();
    R.Edges.resize(D.count(4 + 4 + 1 + 4));
    for (PropEdge &Ed : R.Edges) {
      Ed.SrcId = D.u32();
      Ed.DstId = D.u32();
      Ed.Kind = D.u8();
      Ed.Count = D.u32();
    }
    R.Masks.resize(D.count(1 + 1 + 4));
    for (PropMaskEvent &M : R.Masks) {
      M.Opcode = D.u8();
      M.Kind = D.u8();
      M.Count = D.u32();
    }
  }
  return D.finish("propagation store", Err);
}

} // namespace

void ipas::obs::serializePropagationStore(const PropagationStore &S,
                                          std::string &Out) {
  std::string Payload;
  Encoder E(Payload);
  serializePayload(S, E);
  Out = seal(Magic, PropStoreVersion, Payload);
}

bool ipas::obs::writePropagationStore(const PropagationStore &S,
                                      const std::string &Path,
                                      std::string *Err) {
  std::string Bytes;
  serializePropagationStore(S, Bytes);
  return writeFile(Path, Bytes, Err);
}

bool ipas::obs::parsePropagationStore(PropagationStore &S,
                                      const std::string &Data,
                                      std::string *Err) {
  uint32_t Version = 0;
  const char *Payload = nullptr;
  size_t Len = 0;
  if (!unseal(Data, Magic, PropStoreVersion, "propagation store", Version,
              Payload, Len, Err))
    return false;
  Decoder D(Payload, Len);
  return parsePayload(S, D, Err);
}

bool ipas::obs::readPropagationStore(PropagationStore &S,
                                     const std::string &Path,
                                     std::string *Err) {
  std::string Data;
  return readFile(Path, Data, Err) && parsePropagationStore(S, Data, Err);
}
