//===- e2ebench/buildcheck_probe.cpp - Self-test probe for BuildCheck.h ----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// selftest.py compiles this file under optimised, unoptimised and
// sanitizer flags and expects exit status 0 only for the first.

#include "BuildCheck.h"

#include <cstdio>

int main() {
  const char *Why = bench::buildRefusal();
  std::printf("%s\n", Why ? Why : "ok");
  return Why ? 3 : 0;
}
