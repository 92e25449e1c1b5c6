//===- support/Parallel.h - One process-wide worker pool ------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parallel loop of the code base. Campaign injection runs and the
/// SVM grid search's (C, gamma) fits are independent, index-addressed
/// work items, so both go through parallelFor: a persistent process-wide
/// pool hands out indices one at a time from an atomic counter (IS
/// injection runs vary from ~1 ms to ~15 ms, so static partitioning would
/// leave threads idle), and the caller works on its own loop too.
///
/// Calls nest and overlap safely: a parallelFor made from inside a
/// parallelFor body runs inline on the calling thread, and concurrent
/// top-level callers share the pool — each caller always makes progress
/// on its own loop, so none can wait on another.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_SUPPORT_PARALLEL_H
#define IPAS_SUPPORT_PARALLEL_H

#include <cstddef>
#include <type_traits>

namespace ipas {

/// std::thread::hardware_concurrency(), or 1 when the platform cannot
/// tell. The default thread count of the pipeline and the grid search.
unsigned hardwareThreads();

namespace detail {
void parallelForImpl(size_t N, unsigned Threads,
                     void (*Call)(void *, size_t), void *Fn);
} // namespace detail

/// Calls \p Fn(I) exactly once for every I in [0, N) on up to \p Threads
/// threads — the calling thread plus pool workers — and returns when
/// every call has returned. Threads <= 1, N <= 1 or a call from inside
/// another parallelFor body run the loop inline, in index order. The
/// order of calls is otherwise unspecified: \p Fn must write only to
/// state owned by its index (or synchronize). If a call throws, no
/// further indices are started and the first exception is rethrown here
/// once the calls in flight have finished.
template <typename FnT>
void parallelFor(size_t N, unsigned Threads, FnT &&Fn) {
  using F = std::remove_reference_t<FnT>;
  detail::parallelForImpl(
      N, Threads, [](void *P, size_t I) { (*static_cast<F *>(P))(I); },
      const_cast<void *>(static_cast<const void *>(&Fn)));
}

} // namespace ipas

#endif // IPAS_SUPPORT_PARALLEL_H
