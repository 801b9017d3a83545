#!/usr/bin/env bash
# Configures a sanitizer build (AddressSanitizer + UBSan by default) and
# runs the full test suite under it. Any sanitizer report fails the run:
# UBSan is made halt-on-error and ASan aborts on the first bad access.
# The build also defines _GLIBCXX_ASSERTIONS, so libstdc++ checks bounds
# and preconditions (front() of an empty vector, out-of-range operator[])
# that ASan alone can miss. RelWithDebInfo's default flags define NDEBUG;
# the build overrides them so CONDENSA_DCHECKs fire here too (a -UNDEBUG
# in CMAKE_CXX_FLAGS would lose to the per-configuration flags).
#
# Usage:
#   tools/run_sanitizers.sh                   # address;undefined
#   tools/run_sanitizers.sh "thread"          # a different sanitizer list
#   BUILD_DIR=build-tsan tools/run_sanitizers.sh "thread"
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="${1:-address;undefined}"
BUILD_DIR="${BUILD_DIR:-build-sanitize}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DCONDENSA_SANITIZE="${SANITIZERS}" \
  -DCMAKE_CXX_FLAGS="${CXXFLAGS:-} -D_GLIBCXX_ASSERTIONS" \
  -DCONDENSA_BUILD_BENCHMARKS=OFF \
  -DCONDENSA_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"
echo "sanitizer run (${SANITIZERS}) passed"
