#!/usr/bin/env bash
# Chaos soak for petd (docs/service.md): start the daemon with transient
# link faults enabled, hammer it through petctl's seeded chaos client
# (frame drops, bit flips, connection closes), then SIGTERM it and require
# a clean exit.  Pass criteria:
#   * petctl soak exits 0 (server answered liveness pings throughout —
#     no crash, no hang, typed errors only);
#   * petctl top --once renders the live kMetrics dashboard (or reports the
#     export as unavailable on a PET_OBS=OFF build — also exit 0);
#   * SIGUSR1 produces a non-empty Prometheus exposition dump, validated by
#     obscheck --prom when an obscheck binary is supplied, that carries the
#     service's own names: pet_svc_pop_requests, pet_svc_req_accepted and
#     pet_svc_conn_frames_rx above 0, and a pet_svc_cache_hits sample;
#   * petd exits 0 after SIGTERM within the watchdog budget (graceful
#     drain, socket unlinked).
# Run under ASan (the sanitizers CI job builds the same binaries) this is
# the memory-safety soak the service ctest label wires in.
#
# usage: service_soak.sh <petd> <petctl> [obscheck]
#   SOAK_SECONDS overrides the default 5 s budget (CI uses 30).
set -euo pipefail

PETD=${1:?usage: service_soak.sh <petd> <petctl> [obscheck]}
PETCTL=${2:?usage: service_soak.sh <petd> <petctl> [obscheck]}
OBSCHECK=${3:-}
BUDGET=${SOAK_SECONDS:-5}
SOCK=$(mktemp -u "${TMPDIR:-/tmp}/petd-soak-XXXXXX.sock")
PROM_OUT=$(mktemp -u "${TMPDIR:-/tmp}/petd-soak-XXXXXX.prom")

"$PETD" --socket="$SOCK" --max-inflight=64 --retry-attempts=4 \
        --link-loss=0.05 --prom-out="$PROM_OUT" &
PETD_PID=$!
cleanup() {
  kill -9 "$PETD_PID" 2>/dev/null || true
  rm -f "$SOCK" "$PROM_OUT"
}
trap cleanup EXIT

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  if ! kill -0 "$PETD_PID" 2>/dev/null; then
    echo "service_soak: petd died during startup" >&2
    exit 1
  fi
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  echo "service_soak: petd socket never appeared" >&2
  exit 1
fi

"$PETCTL" --socket="$SOCK" soak --seconds="$BUDGET" --populations=8 \
          --tags=3000 --chaos-loss=0.15 --chaos-noise=0.15 --chaos-close=0.05

# Observability plane: the live dashboard must render one frame against the
# still-running daemon (on PET_OBS=OFF builds it prints a notice, exit 0).
"$PETCTL" --socket="$SOCK" top --once

# SIGUSR1 triggers an atomic Prometheus exposition dump; the accept loop
# services it within one 200 ms poll tick.
kill -USR1 "$PETD_PID"
for _ in $(seq 1 50); do
  [ -s "$PROM_OUT" ] && break
  sleep 0.1
done
if [ ! -s "$PROM_OUT" ]; then
  echo "service_soak: SIGUSR1 produced no prometheus dump" >&2
  exit 1
fi
if [ -n "$OBSCHECK" ]; then
  "$OBSCHECK" --prom="$PROM_OUT"
fi
for name in pet_svc_pop_requests pet_svc_req_accepted pet_svc_conn_frames_rx; do
  if ! awk -v n="$name" '$1 == n && $2 > 0 { found = 1 } END { exit !found }' \
       "$PROM_OUT"; then
    echo "service_soak: prometheus dump has no $name sample above 0" >&2
    exit 1
  fi
done
if ! grep -q '^pet_svc_cache_hits ' "$PROM_OUT"; then
  echo "service_soak: prometheus dump has no pet_svc_cache_hits sample" >&2
  exit 1
fi

# Graceful shutdown: SIGTERM, then poll for up to 30 s; a drain still hung
# by then is killed, which turns it into a hard failure instead of a hung
# test.
kill -TERM "$PETD_PID"
for _ in $(seq 1 300); do
  kill -0 "$PETD_PID" 2>/dev/null || break
  sleep 0.1
done
kill -9 "$PETD_PID" 2>/dev/null || true
set +e
wait "$PETD_PID"
RC=$?
set -e
if [ "$RC" -ne 0 ]; then
  echo "service_soak: petd exited with $RC after SIGTERM" >&2
  exit 1
fi
echo "service_soak: passed (${BUDGET}s chaos, clean shutdown)"
