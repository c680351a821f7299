#!/usr/bin/env bash
# Builds the sparse-pipeline test binary under -DGRAPHALIGN_SANITIZE=address
# and runs it: the MinHash/LSH candidate generator and the sparse LAP solver
# are the newest pointer-heavy code in the tree, so they get an ASan pass in
# the test matrix (DESIGN.md §13), not just the release build. The protocol
# fuzz suite rides along: randomized/truncated/bit-flipped frames into the
# wire decoders are exactly the inputs where ASan turns a silent overread
# into a hard failure. The linalg and parallel-kernel suites ride along too:
# the blocked tred2/tql2 and Sinkhorn kernels (linalg/row_kernels.h) walk
# raw __restrict row pointers with fixed-width chunks and tails. The job
# journal's replay and codec round-trip cases ride along as well: journal
# events are decoded by the same field-list walker as the wire payloads.
# The gateway suite rides along too: HTTP connections are accepted, queued,
# served and closed by the daemon's own accept loop and workers, so every
# HTTP fd changes hands between the listener, the admission queue and a
# worker, and a drain or a full queue rejects it from either side.
#
# Usage: tools/run_sanitize.sh [source-dir]
# Exits 77 (the ctest SKIP_RETURN_CODE) when the toolchain cannot produce an
# ASan binary, so environments without libasan skip instead of failing.
set -euo pipefail

SRC="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD="$SRC/build-asan"

# Probe: can this toolchain link -fsanitize=address at all?
PROBE="$(mktemp -d)"
trap 'rm -rf "$PROBE"' EXIT
echo 'int main() { return 0; }' > "$PROBE/probe.cc"
if ! c++ -fsanitize=address "$PROBE/probe.cc" -o "$PROBE/probe" 2>/dev/null; then
  echo "toolchain cannot link -fsanitize=address; skipping" >&2
  exit 77
fi

cmake -S "$SRC" -B "$BUILD" -DGRAPHALIGN_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
# Only these suites and their dependency closure — not the whole tree.
cmake --build "$BUILD" --target sparse_test protocol_fuzz_test linalg_test \
  parallel_test jobs_test gateway_test -j > /dev/null

# halt_on_error keeps the failure visible to ctest; detect_leaks stays on so
# candidate buffers and solver scratch are leak-checked too.
ASAN_OPTIONS=halt_on_error=1 "$BUILD/tests/sparse_test"
echo "sparse pipeline is clean under AddressSanitizer"
ASAN_OPTIONS=halt_on_error=1 "$BUILD/tests/protocol_fuzz_test"
echo "protocol decoders are clean under AddressSanitizer"
ASAN_OPTIONS=halt_on_error=1 "$BUILD/tests/linalg_test"
ASAN_OPTIONS=halt_on_error=1 GRAPHALIGN_THREADS=4 "$BUILD/tests/parallel_test"
echo "dense linalg kernels are clean under AddressSanitizer"
ASAN_OPTIONS=halt_on_error=1 "$BUILD/tests/jobs_test" \
  --gtest_filter='JobsTest.Journal*:JobsTest.*Durable*:JobsTest.Crash*:JobsTest.Gc*:JobsTest.*RoundTrip*'
echo "job journal replay is clean under AddressSanitizer"
ASAN_OPTIONS=halt_on_error=1 "$BUILD/tests/gateway_test" \
  --gtest_filter='GatewayFixture.*:HttpParserTest.*'
echo "HTTP serving in the daemon's workers is clean under AddressSanitizer"
