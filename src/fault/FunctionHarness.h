//===- fault/FunctionHarness.h - Campaign harness for one function --------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ProgramHarness that drives a single function of a compiled module
/// with fixed arguments and verifies the return value bit-exactly
/// against the first clean run. This is what `ipas-cc --campaign` and
/// the record-store tests use: any MiniC function whose result is its
/// return value gets fault-injection campaigns (with value-step tracing,
/// so SocPropagation pruning works) without a bespoke harness.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_FAULT_FUNCTIONHARNESS_H
#define IPAS_FAULT_FUNCTIONHARNESS_H

#include "fault/ProgramHarness.h"

namespace ipas {

class FunctionHarness : public ProgramHarness {
public:
  /// Drives \p EntryName(Args...). The entry must return a value (the
  /// campaign's correctness oracle is the returned bit pattern).
  FunctionHarness(std::string EntryName, std::vector<RtValue> Args)
      : ProgramHarness(
            {.Entry = std::move(EntryName), .Args = std::move(Args)}) {}
};

} // namespace ipas

#endif // IPAS_FAULT_FUNCTIONHARNESS_H
