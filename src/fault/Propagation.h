//===- fault/Propagation.h - Dynamic fault-propagation tracing ------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shadow dual execution for sampled campaign injections: one observed
/// clean run is flattened into a CleanReference (instruction id + bits
/// per value commit, address + bits per store, condition per branch),
/// then each sampled injection re-executes with a PropagationTracer
/// observer that compares every event against the reference while
/// control flow is still in lockstep. The comparison yields ground
/// truth the endpoint-only `.iprec` record cannot give:
///
///  - *spread*: def-use / memory / control edges along which corrupted
///    bits travelled (the dynamic propagation graph),
///  - *masking*: where corruption died — a corrupted operand producing a
///    bit-equal result (logical masking in cmp/and/select and friends),
///    a clean store overwriting a corrupted address, or a corrupted
///    value that was never consumed (dead),
///  - *reach*: which sink kinds (store, call argument, return, control
///    flow, check, trap) the corruption dynamically touched, in the same
///    bit assignment as analysis/SocPropagation's static SinkMask, and
///    the value step at which it first reached program output.
///
/// Once a corrupted branch condition actually flips control flow the
/// two executions stop being comparable instruction-for-instruction;
/// the tracer records the control edge, sets ControlDiverged, and stops
/// fine-grained accounting (the run's endpoint outcome still comes from
/// the harness). Everything is packaged as obs::PropRecord rows and
/// persisted via the `.ipprop` store (obs/Propagation.h).
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_FAULT_PROPAGATION_H
#define IPAS_FAULT_PROPAGATION_H

#include "fault/Campaign.h"
#include "obs/Propagation.h"

#include <string>
#include <vector>

namespace ipas {

class Module;

/// One observed clean run, flattened into the event sequences a faulty
/// re-execution is compared against. Index k of Ids/Values is dynamic
/// value step k, so lockstep validity at a faulty commit is simply
/// `Ids[k] == I->id()`.
struct CleanReference {
  std::vector<unsigned> Ids;      ///< Producing instruction id per commit.
  std::vector<uint64_t> Values;   ///< Committed bits per commit.
  std::vector<std::pair<uint64_t, uint64_t>> Stores; ///< (addr, bits)/store.
  std::vector<uint8_t> Branches;  ///< Condition taken per cond-branch.
  bool Valid = false;
};

/// Runs one observed clean execution of \p Harness and captures the
/// reference. Valid is false when the clean run did not finish (the
/// campaign driver then skips propagation tracing). Observed runs are
/// interpreter runs; \p Requested only decides whether they count as VM
/// fallbacks.
CleanReference
captureCleanReference(ProgramHarness &Harness, const ModuleLayout &Layout,
                      ExecBackend Requested = ExecBackend::Interp);

/// Re-executes the injection described by \p Plan under full observation
/// and returns its propagation record. RunIndex, bit/step identity, and
/// the endpoint outcome are filled in; the static side-table columns
/// live in the store, not the record.
obs::PropRecord tracePropagation(ProgramHarness &Harness,
                                 const ModuleLayout &Layout,
                                 const CleanReference &Ref,
                                 const FaultPlan &Plan, uint64_t StepBudget,
                                 uint64_t RunIndex,
                                 ExecBackend Requested = ExecBackend::Interp);

/// Everything buildPropagationStore needs. Module and campaign result
/// are required; the static/classifier columns (which this layer cannot
/// compute — they come from analysis/ and ml/) enrich the side table
/// when the driver supplies them, indexed by instruction id.
struct PropBuildInputs {
  const Module *M = nullptr;
  const CampaignResult *Result = nullptr; ///< PropRecords source.
  std::string EntryFunction;
  std::string Label;
  uint64_t Seed = 0;
  uint64_t SampleEvery = 0;
  /// SocPropagation::provablyBenign(), by id. Optional.
  const std::vector<bool> *StaticBenign = nullptr;
  /// SocPropagation per-instruction SinkMask, by id. Optional.
  const std::vector<unsigned> *StaticSinkMask = nullptr;
  /// Classifier verdicts by id: +1 protect / -1 skip / 0 none. Optional.
  const std::vector<int> *Predictions = nullptr;
};

/// Builds the in-memory `.ipprop` store. The module must be
/// renumber()ed and must be the module the campaign ran on.
obs::PropagationStore buildPropagationStore(const PropBuildInputs &In);

/// Writes \p S to \p Path and emits a `campaign.prop.record` trace event
/// carrying the path, label, and record count. Returns false and sets
/// \p Err on I/O failure.
bool writePropagationRecord(const obs::PropagationStore &S,
                            const std::string &Path,
                            std::string *Err = nullptr);

} // namespace ipas

#endif // IPAS_FAULT_PROPAGATION_H
