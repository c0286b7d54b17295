#!/usr/bin/env bash
# Multi-process distributed smoke: two stapnode agents and a stapd
# coordinator as separate OS processes on loopback, one distributed
# replica split 0-2/3-6 across them, load pushed through stapload with
# bit-exact verification against the serial reference (-check makes any
# mismatch a non-zero exit). Asserts a traced job (stapload -trace) is
# served by the distributed slot with a per-job trace holding compute
# slices of all seven tasks, the per-link transport counters and
# the cluster observability surfaces: node-local /metrics.prom, the
# federated stapd_node_*/stapd_cluster_* series, the clock-corrected
# merged /cluster/trace.json with spans from both nodes, the
# /bottlenecks.json attribution report (in-tolerance component sums and
# nonzero wire costs on the distributed links, coordinator and nodes
# alike, with a staptop frame rendered off the live endpoint), — in a
# second phase — the flight record a hard node kill leaves behind, —
# in a third phase — the planner loop: stapplan emits a signed plan
# file, stapd boots the whole cluster from it, the jobs stay bit-exact
# and /plan serves a recommendation — and, in a fourth phase, job
# survival: a stapnode is killed -9 mid-job and the coordinator must
# fail the job over onto the in-process replica with bit-exact results
# (stapd_job_failovers_total advances, stapload -check still exits 0) —
# and, in a fifth phase, SLO alerting: stapslo signs a tight eq. 2
# latency bound, an injected repeating slowdown breaches it, and the
# burn-rate alert must fire on /alerts.json, agree with the stapd_slo_*
# Prometheus families, flip staptop -once to exit code 2, and dump a
# breach flight record with the lead-up history embedded.
# Run from the repository root.
set -euo pipefail

WORK=$(mktemp -d)
SECRET=e2e-smoke
cleanup() {
  kill "${STAPD_PID:-}" "${NODE1_PID:-}" "${NODE2_PID:-}" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/stapd" ./cmd/stapd
go build -o "$WORK/stapnode" ./cmd/stapnode
go build -o "$WORK/stapload" ./cmd/stapload
go build -o "$WORK/stapplan" ./cmd/stapplan
go build -o "$WORK/staptop" ./cmd/staptop

FLIGHT="$WORK/flight"
mkdir -p "$FLIGHT" "$WORK/traces"

"$WORK/stapnode" -listen 127.0.0.1:7441 -secret "$SECRET" \
  -obs 127.0.0.1:7443 -name node1 -flightdir "$FLIGHT" >"$WORK/node1.log" 2>&1 &
NODE1_PID=$!
"$WORK/stapnode" -listen 127.0.0.1:7442 -secret "$SECRET" \
  -obs 127.0.0.1:7444 -name node2 -flightdir "$FLIGHT" >"$WORK/node2.log" 2>&1 &
NODE2_PID=$!
sleep 0.5

"$WORK/stapd" -listen 127.0.0.1:7431 -metrics 127.0.0.1:7432 -size small \
  -replicas 0 -distnodes 127.0.0.1:7441,127.0.0.1:7442 -distsecret "$SECRET" \
  -placement 0-2/3-6 -cpitimeout 60s -flightdir "$FLIGHT" -tracedir "$WORK/traces" \
  >"$WORK/stapd.log" 2>&1 &
STAPD_PID=$!

for i in $(seq 1 50); do
  curl -sf http://127.0.0.1:7432/metrics >/dev/null && break
  sleep 0.2
done

# -check recomputes every job on the serial reference and exits non-zero
# on any detection mismatch: the bit-exactness assert across 3 processes.
"$WORK/stapload" -addr 127.0.0.1:7431 -rate 20 -jobs 8 -cpis 2 -conns 2 \
  -maxretries 10 -check -json "$WORK/report.json"

grep -q '"mismatched"' "$WORK/report.json" && { echo "mismatches reported"; exit 1; }
grep -q '"ok"' "$WORK/report.json"

# One traced job on the distributed slot: served by the pool like the
# eight before it, its trace cut from the nodes' journals — so it must
# hold compute slices of all seven tasks (pids 0-6; Doppler ran on node 1,
# CFAR on node 2).
"$WORK/stapload" -addr 127.0.0.1:7431 -rate 20 -jobs 1 -cpis 2 -conns 1 \
  -maxretries 10 -trace -check
JOBTRACE="$WORK/traces/job000001.trace.json"
grep -q traceEvents "$JOBTRACE"
for pid in 0 1 2 3 4 5 6; do
  grep -q "\"name\":\"comp\",\"ph\":\"X\",\"pid\":$pid," "$JOBTRACE" ||
    { echo "job trace has no compute slice of task $pid"; cat "$WORK/traces/job000001.trace.txt"; exit 1; }
done

curl -sf http://127.0.0.1:7432/metrics.prom >"$WORK/metrics.prom"
# The distributed replica's links must have moved data frames to node 1
# (raw cubes in) and back from node 2 (detections out).
grep '^stapd_link_messages_sent_total{replica="0",member="1"} ' "$WORK/metrics.prom" | grep -v ' 0$'
grep '^stapd_link_messages_received_total{replica="0",member="2"} ' "$WORK/metrics.prom" | grep -v ' 0$'
grep -q '^stapd_jobs_completed_total 9$' "$WORK/metrics.prom"

# Each node serves its own telemetry: worker CPI counters must be nonzero
# on the node-local exposition.
curl -sf http://127.0.0.1:7443/metrics.prom >"$WORK/node1.prom"
grep '^stap_cpis_total' "$WORK/node1.prom" | grep -qv ' 0$'
# The node renders its link plane from the same table stapd does: node 1
# (Doppler + weights) must have written bytes to node 2.
grep '^stap_link_bytes_sent_total{member="2"} ' "$WORK/node1.prom" | grep -qv ' 0$'

# Federation: stapd's poller (1s interval) must surface both nodes up and
# a nonzero merged eq. (1) throughput gauge.
FED_OK=0
for i in $(seq 1 30); do
  curl -sf http://127.0.0.1:7432/metrics.prom >"$WORK/metrics.prom"
  if grep -q '^stapd_node_up{replica="0",node="1"} 1$' "$WORK/metrics.prom" &&
     grep -q '^stapd_node_up{replica="0",node="2"} 1$' "$WORK/metrics.prom" &&
     grep '^stapd_cluster_eq1_throughput_cpis_per_sec{replica="0"} ' "$WORK/metrics.prom" | grep -qv ' 0$'; then
    FED_OK=1
    break
  fi
  sleep 0.5
done
[ "$FED_OK" = 1 ] || { echo "federated node/cluster gauges never went live"; cat "$WORK/metrics.prom"; exit 1; }
grep -q '^stapd_node_clock_offset_seconds{replica="0",node="1"} ' "$WORK/metrics.prom"

# The merged clock-corrected trace carries traced spans from both nodes,
# and the endpoint honors Accept-Encoding: gzip (curl --compressed
# negotiates and transparently decompresses).
curl -sf -H 'Accept-Encoding: gzip' -o /dev/null -D - \
  http://127.0.0.1:7432/cluster/trace.json | grep -qi '^content-encoding: gzip'
curl -sf --compressed http://127.0.0.1:7432/cluster/trace.json >"$WORK/cluster.trace.json"
grep -q '"r0/n1/' "$WORK/cluster.trace.json"
grep -q '"r0/n2/' "$WORK/cluster.trace.json"
grep -q '"trace"' "$WORK/cluster.trace.json"

# Attribution: the coordinator's /bottlenecks.json must carry complete
# in-tolerance waterfalls over the federated journals, with nonzero wire
# components — the data genuinely crossed two process links per CPI.
ATTR_OK=0
for i in $(seq 1 30); do
  curl -sf http://127.0.0.1:7432/bottlenecks.json >"$WORK/bottlenecks.json" || { sleep 0.5; continue; }
  if grep -q '"sum_within_tol": true' "$WORK/bottlenecks.json" &&
     grep -q '"window_cpis": [1-9]' "$WORK/bottlenecks.json" &&
     grep -q '"serialize_ns": [1-9]' "$WORK/bottlenecks.json" &&
     grep -q '"transmit_ns": [1-9]' "$WORK/bottlenecks.json"; then
    ATTR_OK=1
    break
  fi
  sleep 0.5
done
[ "$ATTR_OK" = 1 ] || { echo "coordinator attribution never went live"; cat "$WORK/bottlenecks.json"; exit 1; }

# Each node's local report sees no complete CPI (it hosts only part of
# the latency path) but must stay in tolerance and surface the wire
# costs its own transport measured through the hop table.
for port in 7443 7444; do
  curl -sf "http://127.0.0.1:$port/bottlenecks.json" >"$WORK/node.$port.bottlenecks.json"
  grep -q '"sum_within_tol": true' "$WORK/node.$port.bottlenecks.json"
  grep -q '"transmit_ns": [1-9]' "$WORK/node.$port.bottlenecks.json"
done

# staptop renders one frame off the live endpoint.
"$WORK/staptop" -addr 127.0.0.1:7432 -once >"$WORK/staptop.out"
grep -q 'dominant bottleneck' "$WORK/staptop.out"
grep -q 'wire tax' "$WORK/staptop.out"

kill -TERM "$STAPD_PID"
wait "$STAPD_PID"
unset STAPD_PID
kill -TERM "$NODE1_PID" "$NODE2_PID"
wait "$NODE1_PID" "$NODE2_PID"
unset NODE1_PID NODE2_PID
grep -q 'ended (graceful)' "$WORK/node1.log"
# The orderly shutdown flushed each node's final telemetry, and the
# graceful path wrote no fault flight records.
[ -s "$FLIGHT/stapnode-final.snapshot.json" ]
if ls "$FLIGHT"/flightrec-*.json >/dev/null 2>&1; then
  echo "graceful run left flight records behind"; exit 1
fi

# Phase 2: same trio on fresh ports, then a hard kill of node 2 mid-fleet.
# The replica loss must leave a fault flight record in -flightdir.
"$WORK/stapnode" -listen 127.0.0.1:7451 -secret "$SECRET" \
  -obs 127.0.0.1:7453 -name node1 -flightdir "$FLIGHT" >"$WORK/node1b.log" 2>&1 &
NODE1_PID=$!
"$WORK/stapnode" -listen 127.0.0.1:7452 -secret "$SECRET" \
  -obs 127.0.0.1:7454 -name node2 -flightdir "$FLIGHT" >"$WORK/node2b.log" 2>&1 &
NODE2_PID=$!
sleep 0.5
"$WORK/stapd" -listen 127.0.0.1:7433 -metrics 127.0.0.1:7434 -size small \
  -replicas 0 -distnodes 127.0.0.1:7451,127.0.0.1:7452 -distsecret "$SECRET" \
  -placement 0-2/3-6 -cpitimeout 60s -restartbudget 1 -flightdir "$FLIGHT" \
  >"$WORK/stapd2.log" 2>&1 &
STAPD_PID=$!
for i in $(seq 1 50); do
  curl -sf http://127.0.0.1:7434/metrics >/dev/null && break
  sleep 0.2
done
"$WORK/stapload" -addr 127.0.0.1:7433 -rate 20 -jobs 2 -cpis 2 \
  -maxretries 10 >/dev/null 2>&1 || true

kill -9 "$NODE2_PID"
wait "$NODE2_PID" 2>/dev/null || true
unset NODE2_PID
"$WORK/stapload" -addr 127.0.0.1:7433 -rate 20 -jobs 1 -cpis 2 \
  -maxretries 3 >/dev/null 2>&1 || true

REC_OK=0
for i in $(seq 1 60); do
  if ls "$FLIGHT"/flightrec-*.json >/dev/null 2>&1; then
    REC_OK=1
    break
  fi
  sleep 0.5
done
[ "$REC_OK" = 1 ] || { echo "no flight record after node kill"; cat "$WORK/stapd2.log"; exit 1; }
grep -q '"reason"' "$FLIGHT"/flightrec-*.json

kill -TERM "$STAPD_PID" 2>/dev/null || true
wait "$STAPD_PID" 2>/dev/null || true
unset STAPD_PID
kill -TERM "$NODE1_PID" 2>/dev/null || true
wait "$NODE1_PID" 2>/dev/null || true
unset NODE1_PID

# Phase 3: plan-driven boot. stapplan searches the host-scale model,
# emits a signed plan for two stapnodes, stapd adopts the whole
# configuration from the file (-planfile), and the planned cluster must
# still be bit-exact and serve a /plan recommendation.
"$WORK/stapplan" -size small -machine host -nodes 10 \
  -distnodes 127.0.0.1:7461,127.0.0.1:7462 -secret "$SECRET" \
  -emit "$WORK/plan.json" >"$WORK/stapplan.log"
grep -q 'plan written' "$WORK/stapplan.log"

"$WORK/stapnode" -listen 127.0.0.1:7461 -secret "$SECRET" \
  -obs 127.0.0.1:7463 -name node1 >"$WORK/node1c.log" 2>&1 &
NODE1_PID=$!
"$WORK/stapnode" -listen 127.0.0.1:7462 -secret "$SECRET" \
  -obs 127.0.0.1:7464 -name node2 >"$WORK/node2c.log" 2>&1 &
NODE2_PID=$!
sleep 0.5
"$WORK/stapd" -listen 127.0.0.1:7435 -metrics 127.0.0.1:7436 -size small \
  -replicas 0 -planfile "$WORK/plan.json" -distsecret "$SECRET" \
  -cpitimeout 60s >"$WORK/stapd3.log" 2>&1 &
STAPD_PID=$!
for i in $(seq 1 50); do
  curl -sf http://127.0.0.1:7436/metrics >/dev/null && break
  sleep 0.2
done
grep -q 'plan .* adopted' "$WORK/stapd3.log"

"$WORK/stapload" -addr 127.0.0.1:7435 -rate 20 -jobs 4 -cpis 2 \
  -maxretries 10 -check -json "$WORK/report3.json"
grep -q '"mismatched"' "$WORK/report3.json" && { echo "plan-driven mismatches"; exit 1; }
grep -q '"ok"' "$WORK/report3.json"

# After served jobs the planner calibrates and recommends.
PLAN_OK=0
for i in $(seq 1 30); do
  curl -sf http://127.0.0.1:7436/plan >"$WORK/plan.report.json" || { sleep 0.5; continue; }
  if grep -q '"calibrated": true' "$WORK/plan.report.json" &&
     grep -q '"recommended"' "$WORK/plan.report.json"; then
    PLAN_OK=1
    break
  fi
  sleep 0.5
done
[ "$PLAN_OK" = 1 ] || { echo "/plan never calibrated"; cat "$WORK/plan.report.json"; exit 1; }

kill -TERM "$STAPD_PID"
wait "$STAPD_PID"
unset STAPD_PID
kill -TERM "$NODE1_PID" "$NODE2_PID"
wait "$NODE1_PID" "$NODE2_PID"
unset NODE1_PID NODE2_PID

# Phase 4: end-to-end job survival. One in-process replica plus one
# distributed replica; long jobs stream through both slots while node 2
# is killed -9 mid-job. The coordinator must replay the dead slot's job
# from its CPI journal onto the in-process replica (failover), keep the
# results bit-exact (-check), and with -fallbackinproc backfill the
# budget-exhausted distributed slot so the pool ends the run at full
# strength.
"$WORK/stapnode" -listen 127.0.0.1:7471 -secret "$SECRET" \
  -obs 127.0.0.1:7473 -name node1 >"$WORK/node1d.log" 2>&1 &
NODE1_PID=$!
"$WORK/stapnode" -listen 127.0.0.1:7472 -secret "$SECRET" \
  -obs 127.0.0.1:7474 -name node2 >"$WORK/node2d.log" 2>&1 &
NODE2_PID=$!
sleep 0.5
"$WORK/stapd" -listen 127.0.0.1:7437 -metrics 127.0.0.1:7438 -size small \
  -replicas 1 -distnodes 127.0.0.1:7471,127.0.0.1:7472 -distsecret "$SECRET" \
  -placement 0-2/3-6 -cpitimeout 60s -restartbudget 1 -failoverbudget 2 \
  -fallbackinproc >"$WORK/stapd4.log" 2>&1 &
STAPD_PID=$!
for i in $(seq 1 50); do
  curl -sf http://127.0.0.1:7438/metrics >/dev/null && break
  sleep 0.2
done

"$WORK/stapload" -addr 127.0.0.1:7437 -rate 20 -jobs 4 -cpis 80 -conns 2 \
  -maxretries 10 -check -json "$WORK/report4.json" >"$WORK/stapload4.log" 2>&1 &
LOAD_PID=$!

# Wait until a job is demonstrably mid-flight on the distributed slot
# (its link has moved data frames), then pull the plug on node 2.
KILL_OK=0
for i in $(seq 1 100); do
  curl -sf http://127.0.0.1:7438/metrics.prom >"$WORK/metrics4.prom" || { sleep 0.1; continue; }
  SENT=$(grep '^stapd_link_messages_sent_total{replica="1",member="1"} ' "$WORK/metrics4.prom" | awk '{print $2}')
  if [ -n "${SENT:-}" ] && [ "${SENT%.*}" -ge 5 ]; then
    KILL_OK=1
    break
  fi
  sleep 0.1
done
[ "$KILL_OK" = 1 ] || { echo "distributed slot never saw data frames"; cat "$WORK/stapd4.log"; exit 1; }
kill -9 "$NODE2_PID"
wait "$NODE2_PID" 2>/dev/null || true
unset NODE2_PID

# stapload -check exits non-zero on any mismatch or failed job: the
# failed-over job must come back complete and bit-exact.
wait "$LOAD_PID" || { echo "load failed across node kill"; cat "$WORK/stapload4.log" "$WORK/stapd4.log"; exit 1; }
grep -q '"mismatched"' "$WORK/report4.json" && { echo "failover mismatches"; exit 1; }
grep -q '"ok"' "$WORK/report4.json"

curl -sf http://127.0.0.1:7438/metrics.prom >"$WORK/metrics4.prom"
grep -q '^stapd_jobs_completed_total 4$' "$WORK/metrics4.prom"
grep '^stapd_job_failovers_total ' "$WORK/metrics4.prom" | grep -v ' 0$' \
  || { echo "node kill produced no failover"; cat "$WORK/stapd4.log"; exit 1; }
# Full strength: the distributed slot exhausted its one restart against
# the dead node, fell back in-process exactly once, and is live again.
FALLBACK_OK=0
for i in $(seq 1 40); do
  curl -sf http://127.0.0.1:7438/metrics.prom >"$WORK/metrics4.prom"
  if grep -q '^stapd_slot_transitions_total{replica="1",to="fallback"} 1$' "$WORK/metrics4.prom" &&
     grep -q '^stapd_live_replicas 2$' "$WORK/metrics4.prom"; then
    FALLBACK_OK=1
    break
  fi
  sleep 0.25
done
[ "$FALLBACK_OK" = 1 ] || { echo "pool did not end at full strength through the in-process fallback"; grep -E '^stapd_(slot_transitions_total|live_replicas|replica_up)' "$WORK/metrics4.prom"; cat "$WORK/stapd4.log"; exit 1; }

kill -TERM "$STAPD_PID"
wait "$STAPD_PID"
unset STAPD_PID
kill -TERM "$NODE1_PID"
wait "$NODE1_PID"
unset NODE1_PID

# Phase 5: SLO burn-rate alerting. stapslo emits a signed SLO file with a
# latency bound far under what an injected repeating CFAR slowdown will
# produce; stapd adopts it (-slofile, verified under -distsecret), load
# breaches it, and the burn-rate alert must fire on /alerts.json, flip
# staptop -once to exit code 2, and leave a breach flight record with the
# lead-up history embedded.
go build -o "$WORK/stapslo" ./cmd/stapslo
"$WORK/stapslo" -secret "$SECRET" -out "$WORK/slo.json" \
  -fastwindow 2s -slowwindow 10s -fastburn 1 -slowburn 1 \
  -slo 'eq2-latency:latency_bound:r0/eq2_latency_seconds:25ms:0.9' >"$WORK/stapslo.log"
grep -q 'SLO file written' "$WORK/stapslo.log"
"$WORK/stapslo" -secret "$SECRET" -verify "$WORK/slo.json" >/dev/null

FLIGHT5="$WORK/flight5"
mkdir -p "$FLIGHT5"
"$WORK/stapd" -listen 127.0.0.1:7439 -metrics 127.0.0.1:7440 -size small \
  -replicas 1 -slofile "$WORK/slo.json" -distsecret "$SECRET" \
  -faultplan 'cfar:*:*:slow(50ms)*' -flightdir "$FLIGHT5" >"$WORK/stapd5.log" 2>&1 &
STAPD_PID=$!
for i in $(seq 1 50); do
  curl -sf http://127.0.0.1:7440/metrics >/dev/null && break
  sleep 0.2
done
grep -q 'SLO file .* adopted' "$WORK/stapd5.log"

# Healthy daemon, no samples breached yet: staptop -once must exit 0 and
# render the SLO panel.
"$WORK/staptop" -addr 127.0.0.1:7440 -once >"$WORK/staptop5a.out"
grep -q 'SLOs (0 firing)' "$WORK/staptop5a.out"

# Every CPI pays the 50 ms CFAR stall, so the windowed eq. 2 gauge lands
# far over the 25 ms bound and stays there after the load completes.
"$WORK/stapload" -addr 127.0.0.1:7439 -rate 20 -jobs 6 -cpis 2 \
  -maxretries 10 >/dev/null 2>&1

ALERT_OK=0
for i in $(seq 1 60); do
  curl -sf http://127.0.0.1:7440/alerts.json >"$WORK/alerts.json" || { sleep 0.5; continue; }
  if grep -q '"firing": [1-9]' "$WORK/alerts.json"; then
    ALERT_OK=1
    break
  fi
  sleep 0.5
done
[ "$ALERT_OK" = 1 ] || { echo "SLO alert never fired"; cat "$WORK/alerts.json" "$WORK/stapd5.log"; exit 1; }

# The Prometheus surface agrees, and /history.json serves the series.
curl -sf http://127.0.0.1:7440/metrics.prom >"$WORK/metrics5.prom"
grep -q '^stapd_alerts_firing 1$' "$WORK/metrics5.prom"
grep -q '^stapd_slo_firing{slo="eq2-latency"} 1$' "$WORK/metrics5.prom"
curl -sf 'http://127.0.0.1:7440/history.json?series=r0/eq2_latency_seconds' >"$WORK/history5.json"
grep -q '"r0/eq2_latency_seconds"' "$WORK/history5.json"

# staptop -once prints the firing set and exits 2 while the alert fires.
set +e
"$WORK/staptop" -addr 127.0.0.1:7440 -once >"$WORK/staptop5b.out"
TOP_RC=$?
set -e
[ "$TOP_RC" = 2 ] || { echo "staptop -once exit $TOP_RC under firing alert, want 2"; cat "$WORK/staptop5b.out"; exit 1; }
grep -q 'FIRING: eq2-latency' "$WORK/staptop5b.out"

# The breach flight record embeds the faulted replica's recent history.
REC5_OK=0
for i in $(seq 1 30); do
  if grep -ls 'slo breach' "$FLIGHT5"/flightrec-*.json >/dev/null 2>&1; then
    REC5_OK=1
    break
  fi
  sleep 0.5
done
[ "$REC5_OK" = 1 ] || { echo "no SLO breach flight record"; ls "$FLIGHT5"; cat "$WORK/stapd5.log"; exit 1; }
grep -l 'slo breach' "$FLIGHT5"/flightrec-*.json | xargs grep -q '"history"'

kill -TERM "$STAPD_PID"
wait "$STAPD_PID"
unset STAPD_PID
echo "distributed e2e smoke passed"
