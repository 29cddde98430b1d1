#!/usr/bin/env bash
# Smoke-test dvz-server's full service loop over real HTTP and real
# signals: start the server, create a short isasim campaign, poll the
# triage view, SIGTERM the server mid-campaign (graceful shutdown must
# checkpoint it at the next merge barrier), restart over the same state
# directory, and assert the campaign resumes automatically and completes.
# Then the unclean leg: kill -9 the server mid-way through a boom campaign,
# restart it, and assert the triage store absorbed each finding exactly
# once although the campaign resumed from an older autosave and re-drained
# barriers the stores had already absorbed.
set -euo pipefail

ADDR="127.0.0.1:8471"
BASE="http://$ADDR"
STATE="$(mktemp -d)"
BIN="$(mktemp -d)/dvz-server"
SRV_PID=""

cleanup() {
  [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
  rm -rf "$STATE" "$(dirname "$BIN")" 2>/dev/null || true
}
trap cleanup EXIT

fail() { echo "SMOKE FAIL: $*" >&2; exit 1; }

# jq-free field extraction: first "key":value (string or number) in stdin.
field() { grep -o "\"$1\":[^,}]*" | head -n1 | sed -e "s/\"$1\"://" -e 's/"//g' -e 's/ //g'; }

# Number of findings in a report read from stdin.
count_findings() { { grep -o '"AttackType":' || true; } | wc -l | tr -d ' '; }

wait_healthy() {
  for _ in $(seq 100); do
    curl -fs "$BASE/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  fail "server never became healthy on $BASE"
}

echo "== build"
go build -o "$BIN" ./cmd/dvz-server

echo "== start server (state=$STATE)"
"$BIN" -addr "$ADDR" -state "$STATE" -workers 2 &
SRV_PID=$!
wait_healthy

# 60k iterations: the context-reuse engine runs isasim at ~6k iters/s per
# worker, so the campaign must be long enough to still be mid-flight when
# the SIGTERM lands a few curl round-trips after the first barrier.
echo "== create isasim campaign"
CREATE=$(curl -fs -X POST "$BASE/campaigns" \
  -d '{"name":"smoke","options":{"target":"isasim","seed":7,"iterations":60000,"merge_every":64}}')
ID=$(echo "$CREATE" | field id)
TOTAL=$(echo "$CREATE" | field total)
[ -n "$ID" ] || fail "create returned no id: $CREATE"
[ "$TOTAL" = "60000" ] || fail "create returned total=$TOTAL, want 60000"
echo "   campaign $ID, $TOTAL iterations"

echo "== wait for first merge barrier"
DONE=0
for _ in $(seq 200); do
  DONE=$(curl -fs "$BASE/campaigns/$ID" | field done)
  [ "$DONE" -gt 0 ] && break
  sleep 0.1
done
[ "$DONE" -gt 0 ] || fail "campaign never crossed a barrier"

echo "== poll triage view"
FINDINGS=$(curl -fs "$BASE/findings")
echo "$FINDINGS" | grep -q '"raw_findings"' || fail "/findings malformed: $FINDINGS"
METRICS=$(curl -fs "$BASE/metrics")
echo "$METRICS" | grep -q '^dvz_campaigns{state="running"} 1' \
  || fail "metrics do not show the running campaign"

echo "== SIGTERM mid-campaign (done=$DONE/$TOTAL)"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || fail "server exited non-zero after SIGTERM"
SRV_PID=""
CKPT_DONE=$(grep -o "\"done\":[0-9]*" "$STATE/campaigns.json" | head -n1 | sed 's/"done"://')
[ "$CKPT_DONE" -gt 0 ] && [ "$CKPT_DONE" -lt "$TOTAL" ] \
  || fail "registry shows done=$CKPT_DONE, want mid-campaign checkpoint"
grep -q '"state":"queued"' "$STATE/campaigns.json" || fail "campaign not persisted as queued for resume"
echo "   checkpointed at $CKPT_DONE/$TOTAL"

echo "== restart server, campaign must resume on its own"
"$BIN" -addr "$ADDR" -state "$STATE" -workers 2 &
SRV_PID=$!
wait_healthy
STATE_NOW=""
for _ in $(seq 600); do
  REC=$(curl -fs "$BASE/campaigns/$ID")
  STATE_NOW=$(echo "$REC" | field state)
  DONE=$(echo "$REC" | field done)
  [ "$STATE_NOW" = "done" ] && break
  [ "$STATE_NOW" = "failed" ] && fail "campaign failed after restart: $REC"
  sleep 0.1
done
[ "$STATE_NOW" = "done" ] || fail "campaign did not finish after restart (state=$STATE_NOW done=$DONE)"
[ "$DONE" = "$TOTAL" ] || fail "finished with done=$DONE, want $TOTAL"
REPORT=$(curl -fs "$BASE/campaigns/$ID/report")
# Substring match, not a grep pipe: the report is megabytes and grep -q's
# early exit would SIGPIPE the producer under pipefail.
[[ "$REPORT" == *'"Coverage"'* ]] || fail "report endpoint empty"
ISA_FINDINGS=$(printf '%s' "$REPORT" | count_findings)

# 4000 iterations at merge_every 16 is 250 barriers, so autosaves are
# throttled to every 4th barrier: the kill -9 usually lands after barriers
# the stores absorbed but the checkpoint does not cover.
echo "== create boom campaign for the unclean-restart leg"
CREATE=$(curl -fs -X POST "$BASE/campaigns" \
  -d '{"name":"crash","options":{"target":"boom","seed":3,"iterations":4000,"merge_every":16}}')
BOOM=$(echo "$CREATE" | field id)
[ -n "$BOOM" ] || fail "create returned no id: $CREATE"
DONE=0
for _ in $(seq 600); do
  DONE=$(curl -fs "$BASE/campaigns/$BOOM" | field done)
  [ "$DONE" -ge 64 ] && break
  sleep 0.05
done
[ "$DONE" -ge 64 ] || fail "boom campaign never reached 64 iterations"

echo "== kill -9 mid-campaign (done=$DONE/4000)"
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

echo "== restart after the crash, campaign must resume and finish"
"$BIN" -addr "$ADDR" -state "$STATE" -workers 2 &
SRV_PID=$!
wait_healthy
STATE_NOW=""
for _ in $(seq 1200); do
  STATE_NOW=$(curl -fs "$BASE/campaigns/$BOOM" | field state)
  [ "$STATE_NOW" = "done" ] && break
  [ "$STATE_NOW" = "failed" ] && fail "boom campaign failed after the crash"
  sleep 0.1
done
[ "$STATE_NOW" = "done" ] || fail "boom campaign did not finish after the crash (state=$STATE_NOW)"
BOOM_FINDINGS=$(curl -fs "$BASE/campaigns/$BOOM/report" | count_findings)
RAW=$(curl -fs "$BASE/findings?limit=0" | field raw_findings)
WANT=$((ISA_FINDINGS + BOOM_FINDINGS))
[ "$BOOM_FINDINGS" -gt 0 ] || fail "boom campaign reported no findings"
[ "$RAW" = "$WANT" ] || fail "raw_findings=$RAW after the crash, reports hold $WANT findings"
echo "   raw_findings=$RAW, one per reported finding"

echo "== graceful final shutdown"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || fail "server exited non-zero on final SIGTERM"
SRV_PID=""
for f in "$STATE/corpus/corpus.json" "$STATE/corpus/journal.ndjson" "$STATE/findings.json"; do
  [ -f "$f" ] || fail "$f missing"
  if grep -q -e '"seen"' -e '"occurrences"' "$f"; then
    fail "$f stores per-occurrence keys"
  fi
done

echo "SMOKE OK: campaign $ID checkpointed at $CKPT_DONE/$TOTAL and resumed to completion"
