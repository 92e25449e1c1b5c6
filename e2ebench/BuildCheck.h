//===- e2ebench/BuildCheck.h - Refuse to time the wrong build --------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing an unoptimised or sanitizer build would measure a different
/// program from the one users run, so the benchmark refuses both. Inline,
/// so the verdict reflects the flags of the translation unit including
/// it; the CMake package compiles the benchmark and the libraries with
/// one set of flags and defines IPAS_BENCH_SANITIZED whenever
/// IPAS_SANITIZE is set (GCC defines no macro for UBSan).
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_E2EBENCH_BUILDCHECK_H
#define IPAS_E2EBENCH_BUILDCHECK_H

namespace bench {

/// Why this build must not be timed, or null when it may.
inline const char *buildRefusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build (configure with -DCMAKE_BUILD_TYPE="
         "RelWithDebInfo or Release)";
#elif defined(IPAS_BENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) ||     \
    defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  return nullptr;
#endif
}

} // namespace bench

#endif // IPAS_E2EBENCH_BUILDCHECK_H
