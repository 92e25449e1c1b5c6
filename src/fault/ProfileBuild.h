//===- fault/ProfileBuild.h - Clean-run profiles -> .ipprof stores --------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue between the interpreter's cost profiler and the dependency-free
/// obs::ProfileStore: runs one profiled clean execution under a
/// `profile.*` trace span, converts the counts into the columnar store,
/// and — given a second profile of the *unprotected baseline* build —
/// attributes every added cycle of the protected run to the original
/// site whose protection caused it (the DupRole/dupLink provenance on
/// cloned instructions makes that attribution exact: Σ per-site marginal
/// cycles == protected − baseline total).
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_FAULT_PROFILEBUILD_H
#define IPAS_FAULT_PROFILEBUILD_H

#include "fault/ProgramHarness.h"
#include "interp/CostProfiler.h"
#include "obs/ProfileStore.h"

#include <string>
#include <vector>

namespace ipas {

struct ProfileBuildInputs {
  std::string EntryFunction;
  std::string Label;
  /// MiniC source of the profiled build, for the per-line cost heatmap.
  std::string SourceText;
  /// Requested engine: counting mode runs natively on the VM, context
  /// mode falls back to the interpreter (vm.fallback.profile_context).
  ExecBackend Backend = ExecBackend::Interp;
};

/// Runs one profiled clean execution of \p Harness over \p Layout with
/// \p Prof (constructed by the caller in the desired mode, so the caller
/// can also read its function hashes afterwards) and fills \p Out from
/// the counts. Emits a `profile.clean` (counting) or `profile.context`
/// span. Returns false with \p *Err when the clean run does not finish
/// with valid output.
bool buildProfileStore(ProgramHarness &Harness, const ModuleLayout &Layout,
                       CostProfiler &Prof, const ProfileBuildInputs &In,
                       obs::ProfileStore &Out, std::string *Err);

/// Protection-overhead attribution. \p Base / \p BaseCounts are the
/// unprotected module and its profiled clean-run counts; \p Prot /
/// \p ProtCounts the protected build of the same source on the same
/// inputs. Fills Out.Overheads (one row per baseline site) and
/// Out.BaselineTotalCycles, pricing both sides with \p CM. Duplication
/// only inserts Shadow/Check clones, never removes or reorders the
/// surviving originals, so the non-clone subsequence of \p Prot
/// corresponds 1:1 in order with \p Base — the correspondence is checked
/// (count and opcode) and mismatch fails rather than misattributing.
bool attributeOverhead(const Module &Base,
                       const std::vector<uint64_t> &BaseCounts,
                       const Module &Prot,
                       const std::vector<uint64_t> &ProtCounts,
                       const CostModel &CM, obs::ProfileStore &Out,
                       std::string *Err);

/// Writes \p S to \p Path and emits a `profile.store` trace event
/// carrying the path, label, mode, and cycle totals. Returns false and
/// sets \p Err on I/O failure.
bool writeProfileArtifact(const obs::ProfileStore &S,
                          const std::string &Path,
                          std::string *Err = nullptr);

} // namespace ipas

#endif // IPAS_FAULT_PROFILEBUILD_H
