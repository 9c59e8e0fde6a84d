#!/usr/bin/env bash
# Sanitizer matrix: builds and tests the stack under ASan, UBSan, and TSan,
# one build tree per runtime (PHOTON_SANITIZE wires the flags in CMake).
#
# address/undefined run the full ctest suite with PHOTON_CHECK=ON, so the
# shadow-state checker itself is exercised under both runtimes. thread runs
# the progress-path concurrency suites and the two-sided msg suites, whose
# recv CQs take pushes from the owner and its peers at once (the rest of the
# test matrix is single-threaded-per-rank by construction and adds nothing
# but runtime);
# tools/tsan.supp exempts the modeled RMA data-plane copies, which race by
# design.
#
#   tools/run_sanitizers.sh [address] [undefined] [thread]   # default: all
set -uo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
legs=("$@")
[ ${#legs[@]} -eq 0 ] && legs=(address undefined thread)

fail=0
for leg in "${legs[@]}"; do
  build="$repo/build-$leg"
  echo "== sanitizer leg: $leg =="
  if ! cmake -B "$build" -S "$repo" -DPHOTON_SANITIZE="$leg" \
       -DPHOTON_CHECK=ON >/dev/null; then
    echo "LEG $leg FAILED (configure)"; fail=1; continue
  fi
  if ! cmake --build "$build" -j"$(nproc)" >/dev/null; then
    echo "LEG $leg FAILED (build)"; fail=1; continue
  fi
  filter=()
  case "$leg" in
    address)
      # The gtest/benchmark runtimes hold allocations to exit; only real
      # heap corruption should fail the leg.
      export ASAN_OPTIONS="detect_leaks=0:halt_on_error=1" ;;
    undefined)
      export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" ;;
    thread)
      export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 suppressions=$repo/tools/tsan.supp"
      filter=(-R 'CompletionQueueVt|CompletionQueueLanes|RegistryConcurrency|NicTest.RecvCompletionPublishedOnlyAfterPayloadLands|NicCounterConservation|TwoCellRead.FirstCellIsReadBeforeTheSecond|DdsHashTableConcurrent|PhotonStress|FaultInjector|LatencyHistogram|MetricsRegistry|TelemetryEndToEnd|RecoverySoak|MsgEngine|MsgProperty') ;;
  esac
  if ctest --test-dir "$build" --output-on-failure "${filter[@]}" >/dev/null 2>&1; then
    echo "LEG $leg PASSED"
  else
    echo "LEG $leg FAILED (ctest)"; fail=1
  fi
done

[ $fail -eq 0 ] && echo "sanitizer matrix passed"
exit $fail
