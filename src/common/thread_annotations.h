#ifndef S2RDF_COMMON_THREAD_ANNOTATIONS_H_
#define S2RDF_COMMON_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis annotations (no-ops on other compilers).
//
// The concurrency guarantees of PR 1 (thread-safe Execute) are enforced
// at compile time: every mutex-protected member is tagged with
// S2RDF_GUARDED_BY, every helper that assumes a held lock with
// S2RDF_REQUIRES, and the `analyze` CMake preset promotes
// -Wthread-safety to an error so a forgotten lock is a build break, not
// a flaky tsan report. See https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
// and DESIGN.md §7.
//
// Use the common::Mutex / SharedMutex / MutexLock wrappers from
// common/mutex.h — the analysis only understands annotated capability
// types, so bare std::mutex members defeat it (and are rejected by
// s2rdf_lint).

#if defined(__clang__) && (!defined(SWIG))
#define S2RDF_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define S2RDF_THREAD_ANNOTATION_(x)  // no-op
#endif

// Declares that a type is a lockable capability ("mutex").
#define S2RDF_CAPABILITY(x) S2RDF_THREAD_ANNOTATION_(capability(x))

// Declares an RAII type that acquires a capability in its constructor
// and releases it in its destructor.
#define S2RDF_SCOPED_CAPABILITY S2RDF_THREAD_ANNOTATION_(scoped_lockable)

// Declares that a data member is protected by the given capability.
#define S2RDF_GUARDED_BY(x) S2RDF_THREAD_ANNOTATION_(guarded_by(x))

// Declares that the pointed-to data (not the pointer itself) is
// protected by the given capability.
#define S2RDF_PT_GUARDED_BY(x) S2RDF_THREAD_ANNOTATION_(pt_guarded_by(x))

// Declares that a function requires the capability to be held
// exclusively (resp. at least shared) on entry, and does not release it.
#define S2RDF_REQUIRES(...) \
  S2RDF_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define S2RDF_REQUIRES_SHARED(...) \
  S2RDF_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

// Declares that a function acquires (resp. releases) the capability.
#define S2RDF_ACQUIRE(...) \
  S2RDF_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define S2RDF_ACQUIRE_SHARED(...) \
  S2RDF_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define S2RDF_RELEASE(...) \
  S2RDF_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define S2RDF_RELEASE_SHARED(...) \
  S2RDF_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
// Releases a capability regardless of whether it is held exclusively or
// shared (what a generic RAII destructor does).
#define S2RDF_RELEASE_GENERIC(...) \
  S2RDF_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

// Declares that a function tries to acquire the capability and returns
// `success` when it did.
#define S2RDF_TRY_ACQUIRE(...) \
  S2RDF_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Declares that a function must NOT be called with the capability held
// (it acquires it itself; calling with it held would deadlock).
#define S2RDF_EXCLUDES(...) \
  S2RDF_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Declares that a function returns a reference to the given capability.
#define S2RDF_RETURN_CAPABILITY(x) \
  S2RDF_THREAD_ANNOTATION_(lock_returned(x))

// Asserts at runtime that the calling thread holds the capability, and
// tells the analysis to assume so afterwards.
#define S2RDF_ASSERT_CAPABILITY(x) \
  S2RDF_THREAD_ANNOTATION_(assert_capability(x))

// Declares the global acquisition order between two mutexes: the
// annotated mutex must be acquired BEFORE (resp. AFTER) the argument.
// Clang only diagnoses these within one translation unit; the
// s2rdf_lint lock-order pass merges the declared edges into its global
// acquired-before graph, so a cross-TU nesting that contradicts a
// declaration is caught as a cycle. Arguments may be a sibling member
// (`ingest_mu_`) or qualified (`Catalog::mu_`).
#define S2RDF_ACQUIRED_BEFORE(...) \
  S2RDF_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define S2RDF_ACQUIRED_AFTER(...) \
  S2RDF_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// Escape hatch: turns the analysis off for one function. Every use must
// explain why the analysis cannot see the invariant.
#define S2RDF_NO_THREAD_SAFETY_ANALYSIS \
  S2RDF_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // S2RDF_COMMON_THREAD_ANNOTATIONS_H_
