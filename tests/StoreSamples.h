//===- tests/StoreSamples.h - One sample per on-disk store kind -*- C++ -*-===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fully populated sample of each obs store kind. Each is defined next
/// to its kind's round-trip test; the shared envelope suite
/// (TestStoreEnvelope.cpp) corrupts their serializations.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_TESTS_STORESAMPLES_H
#define IPAS_TESTS_STORESAMPLES_H

#include "obs/ProfileStore.h"
#include "obs/Propagation.h"
#include "obs/RecordStore.h"
#include "obs/SessionStore.h"
#include "obs/SummaryStore.h"

namespace ipas {
namespace testutil {

obs::RecordStore sampleRecordStore();
obs::ProfileStore sampleProfileStore();
obs::PropagationStore samplePropagationStore();
obs::SummaryStore sampleSummaryStore();
obs::SessionStore sampleSessionStore();

} // namespace testutil
} // namespace ipas

#endif // IPAS_TESTS_STORESAMPLES_H
