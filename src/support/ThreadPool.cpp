//===- support/ThreadPool.cpp ---------------------------------------------==//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdlib>

using namespace pacer;

ThreadPool::ThreadPool(unsigned WorkerCount) {
  Workers.reserve(WorkerCount);
  for (unsigned I = 0; I < WorkerCount; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::processBatch(Batch &B) {
  for (size_t I = B.NextIndex.fetch_add(1, std::memory_order_relaxed);
       I < B.Count;
       I = B.NextIndex.fetch_add(1, std::memory_order_relaxed)) {
#if defined(__cpp_exceptions)
    try {
      (*B.Fn)(I);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(B.ErrorMutex);
      if (!B.FirstError || I < B.FirstErrorIndex) {
        B.FirstError = std::current_exception();
        B.FirstErrorIndex = I;
      }
    }
#else
    (*B.Fn)(I);
#endif
    if (B.Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task of the batch: wake the controlling thread. Taking the
      // pool mutex orders the notify against the controller's wait.
      std::lock_guard<std::mutex> Lock(Mutex);
      BatchDone.notify_all();
    }
  }
}

void ThreadPool::workerLoop() {
  uint64_t SeenGeneration = 0;
  while (true) {
    std::shared_ptr<Batch> B;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock, [&] {
        return Stopping || Generation != SeenGeneration;
      });
      if (Stopping)
        return;
      SeenGeneration = Generation;
      B = Current;
    }
    if (B)
      processBatch(*B);
  }
}

void ThreadPool::run(size_t Count, const std::function<void(size_t)> &Fn) {
  if (Count == 0)
    return;
  if (Workers.empty()) {
    for (size_t I = 0; I < Count; ++I)
      Fn(I);
    return;
  }
  auto B = std::make_shared<Batch>();
  B->Fn = &Fn;
  B->Count = Count;
  B->Remaining.store(Count, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Current = B;
    ++Generation;
  }
  WorkReady.notify_all();
  // The controlling thread works the same cursor: a pool of N workers
  // plus the caller gives N+1-way concurrency, and the caller never sits
  // idle while tasks are queued.
  processBatch(*B);
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    BatchDone.wait(Lock, [&] {
      return B->Remaining.load(std::memory_order_acquire) == 0;
    });
    Current.reset();
  }
#if defined(__cpp_exceptions)
  if (B->FirstError)
    std::rethrow_exception(B->FirstError);
#endif
}

unsigned pacer::defaultJobs() {
  const char *Env = std::getenv("PACER_JOBS");
  if (!Env || !*Env)
    return 1;
  char *End = nullptr;
  long Jobs = std::strtol(Env, &End, 10);
  if (End == Env || Jobs < 1)
    return 1;
  return Jobs > 256 ? 256u : static_cast<unsigned>(Jobs);
}

unsigned pacer::hardwareJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

void pacer::parallelFor(unsigned Jobs, size_t Count,
                        const std::function<void(size_t)> &Fn) {
  if (Jobs <= 1 || Count <= 1) {
    for (size_t I = 0; I < Count; ++I)
      Fn(I);
    return;
  }
  size_t Extra = std::min<size_t>(Jobs, Count) - 1; // Caller is job #0.
  ThreadPool Pool(static_cast<unsigned>(Extra));
  Pool.run(Count, Fn);
}
