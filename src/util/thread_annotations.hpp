// Clang thread-safety annotation macros (no-ops on every other compiler).
//
// The annotations make the locking discipline machine-checkable: members
// carry GUARDED_BY(mutex), private helpers that assume a held lock carry
// REQUIRES(mutex), and the annotated util::Mutex / util::LockGuard wrappers
// (util/mutex.hpp) let clang's -Wthread-safety analysis prove every access
// is covered. On GCC (and any compiler without the attributes) the macros
// expand to nothing, so the annotated tree is byte-identical to the
// unannotated one — zero runtime cost either way.
//
// Lock hierarchy (acquire strictly top-to-bottom; all leaves unless noted):
//
//   1. runtime::Exchanger::mutex_      bootstrap only, never on a data path
//   2. check::Checker::mutex_          may take 3 (log) via report()
//   3. log g_mutex                     leaf
//   .  fabric::Nic::rx_mutex_          leaf (delivery runs under it but only
//                                      pushes the recv CQ, which is lock-free)
//   .  fabric::MemoryRegistry::mutex_  leaf; checker hooks run OUTSIDE it;
//                                      lookups take it only on a cache miss
//   .  fabric::FaultInjector::mutex_   leaf
//   .  telemetry::MetricsRegistry::mu_ leaf (metric hot paths are lock-free)
//
// Unordered leaves may never be held simultaneously by one thread; the only
// sanctioned nestings are 1->* and 2->3. fabric::CompletionQueue has no lock.
// DESIGN.md §11 has the full model.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define PHOTON_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PHOTON_THREAD_ANNOTATION_(x)  // no-op off clang
#endif

#define CAPABILITY(x) PHOTON_THREAD_ANNOTATION_(capability(x))
#define SCOPED_CAPABILITY PHOTON_THREAD_ANNOTATION_(scoped_lockable)
#define GUARDED_BY(x) PHOTON_THREAD_ANNOTATION_(guarded_by(x))
#define PT_GUARDED_BY(x) PHOTON_THREAD_ANNOTATION_(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) PHOTON_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) PHOTON_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define REQUIRES(...) PHOTON_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  PHOTON_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) PHOTON_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  PHOTON_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) PHOTON_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  PHOTON_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  PHOTON_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  PHOTON_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  PHOTON_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) PHOTON_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) PHOTON_THREAD_ANNOTATION_(assert_capability(x))
#define RETURN_CAPABILITY(x) PHOTON_THREAD_ANNOTATION_(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  PHOTON_THREAD_ANNOTATION_(no_thread_safety_analysis)
