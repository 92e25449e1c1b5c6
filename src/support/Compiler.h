//===- support/Compiler.h - Compiler-specific annotations ----------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IPAS_SUPPORT_COMPILER_H
#define IPAS_SUPPORT_COMPILER_H

/// Bracket a statement that GCC 12 flags at -O3 with a false -Wrestrict
/// overlap inside std::string's operator+(const char *, std::string &&).
/// The suppression is per site, so a real -Wrestrict anywhere else still
/// reports.
#if defined(__GNUC__) && !defined(__clang__)
#define IPAS_GCC_RESTRICT_FALSE_POSITIVE_BEGIN                                 \
  _Pragma("GCC diagnostic push")                                               \
      _Pragma("GCC diagnostic ignored \"-Wrestrict\"")
#define IPAS_GCC_RESTRICT_FALSE_POSITIVE_END _Pragma("GCC diagnostic pop")
#else
#define IPAS_GCC_RESTRICT_FALSE_POSITIVE_BEGIN
#define IPAS_GCC_RESTRICT_FALSE_POSITIVE_END
#endif

#endif // IPAS_SUPPORT_COMPILER_H
