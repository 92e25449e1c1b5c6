//===- support/Parallel.cpp -----------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace ipas;

unsigned ipas::hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

/// True on pool workers and on a caller while it runs its own loop: a
/// parallelFor from such a thread runs inline.
thread_local bool InsideLoop = false;

/// One parallelFor call. Lives on the caller's stack; the caller does not
/// return before every worker that joined has left it.
struct Loop {
  Loop(size_t N, void (*Call)(void *, size_t), void *Fn, unsigned Helpers)
      : N(N), Call(Call), Fn(Fn), HelpersWanted(Helpers) {}

  const size_t N;
  void (*const Call)(void *, size_t);
  void *const Fn;
  std::atomic<size_t> Next{0};
  // Guarded by Pool::Mutex.
  unsigned HelpersWanted; ///< Workers that may still join.
  unsigned Active = 0;    ///< Workers inside run().
  std::exception_ptr Error;

  /// Claims indices until none are left. Returns the exception a call
  /// threw, after stopping the hand-out of further indices.
  std::exception_ptr run() {
    try {
      for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;)
        Call(Fn, I);
    } catch (...) {
      Next.store(N, std::memory_order_relaxed);
      return std::current_exception();
    }
    return nullptr;
  }
};

/// Workers are started on demand, up to the largest request seen (capped
/// at MaxWorkers), and then park on a condition variable for the life of
/// the process: repeated campaigns reuse the same threads, and with them
/// the same allocator arenas.
class Pool {
public:
  static constexpr unsigned MaxWorkers = 255;

  static Pool &get() {
    static Pool P;
    return P;
  }

  Pool() = default;
  Pool(const Pool &) = delete;
  Pool &operator=(const Pool &) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stop = true;
    }
    WorkCv.notify_all();
    for (std::thread &T : Workers)
      T.join();
  }

  void run(Loop &L) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      while (Workers.size() < L.HelpersWanted)
        Workers.emplace_back([this] { work(); });
      Queue.push_back(&L);
    }
    WorkCv.notify_all();

    InsideLoop = true;
    std::exception_ptr Mine = L.run();
    InsideLoop = false;

    std::unique_lock<std::mutex> Lock(Mutex);
    // Every index is claimed: close the loop to late joiners, then wait
    // for the workers still finishing theirs.
    auto It = std::find(Queue.begin(), Queue.end(), &L);
    if (It != Queue.end())
      Queue.erase(It);
    DoneCv.wait(Lock, [&] { return L.Active == 0; });
    if (!Mine)
      Mine = L.Error;
    Lock.unlock();
#ifdef __GLIBC__
    // Workers allocate from their own malloc arenas, which keep what a
    // loop's items freed (SVM kernel matrices, run temporaries) resident
    // until that thread allocates again; hand those pages back, so the
    // threads do not raise the process's peak memory phase after phase.
    malloc_trim(0);
#endif
    if (Mine)
      std::rethrow_exception(Mine);
  }

private:
  void work() {
    InsideLoop = true;
    std::unique_lock<std::mutex> Lock(Mutex);
    for (;;) {
      WorkCv.wait(Lock, [&] { return Stop || !Queue.empty(); });
      if (Stop)
        return;
      Loop &L = *Queue.front();
      ++L.Active;
      if (--L.HelpersWanted == 0)
        Queue.pop_front();
      Lock.unlock();
      std::exception_ptr E = L.run();
      Lock.lock();
      if (E && !L.Error)
        L.Error = E;
      if (--L.Active == 0)
        DoneCv.notify_all();
    }
  }

  std::mutex Mutex;
  std::condition_variable WorkCv; ///< Queue non-empty or Stop.
  std::condition_variable DoneCv; ///< Some loop's Active reached 0.
  std::deque<Loop *> Queue;       ///< Loops that still take helpers.
  bool Stop = false;
  std::vector<std::thread> Workers; // last: started after the rest exist
};

} // namespace

void ipas::detail::parallelForImpl(size_t N, unsigned Threads,
                                   void (*Call)(void *, size_t), void *Fn) {
  size_t Helpers =
      std::min<size_t>({Threads ? Threads - 1 : 0, N ? N - 1 : 0,
                        Pool::MaxWorkers});
  if (Helpers == 0 || InsideLoop) {
    for (size_t I = 0; I != N; ++I)
      Call(Fn, I);
    return;
  }
  Loop L(N, Call, Fn, static_cast<unsigned>(Helpers));
  Pool::get().run(L);
}
