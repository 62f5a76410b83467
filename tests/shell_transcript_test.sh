#!/usr/bin/env bash
# Shell transcript test: one script through the embedded rfidsql shell
# and through `rfidsql --connect` against `rfidsql --serve`. Both modes
# run the same server session code, so their outputs must be identical
# once the per-query timing line ("N ms [hit|miss|bypass]") is masked.
#
# Usage: shell_transcript_test.sh <path-to-rfidsql>
set -euo pipefail

RFIDSQL="$1"
WORK="$(mktemp -d)"
SRVPID=""
cleanup() {
  if [ -n "$SRVPID" ]; then kill -TERM "$SRVPID" 2> /dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

cat > "$WORK/script.sql" <<'SQL'
.gen 4 10
.rule DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 MINUTES ACTION DELETE B
DEFINE reader ON caseR CLUSTER BY epc SEQUENCE BY rtime
  AS (A, *B) WHERE B.reader = 'readerX' AND B.rtime - A.rtime < 10 MINUTES
  ACTION DELETE A;
.rules
.lint
.strategy joinback
SELECT biz_loc, count(*) FROM caseR GROUP BY biz_loc;
SELECT biz_loc, count(*) FROM caseR GROUP BY biz_loc;
SELECT biz_loc, FROM caseR
  WHERE;
.cache stats
.droprule reader
-- A DELETE/KEEP pair that .lint flags: its warning prints once, before
-- the first of the two queries.
DEFINE retain ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B)
  WHERE A.biz_loc = B.biz_loc ACTION KEEP B;
.lint
SELECT count(*) FROM caseR;
SELECT count(*) FROM caseR;
.droprule retain
.set max_rows 5
SELECT epc, rtime FROM caseR;
SELECT count(*) FROM caseR WHERE biz_loc = 'GLN-CROSS-LOC2';
.feed 2 64
.tables
.stats
.quit
SQL

mask() {
  sed -E 's/^[0-9]+\.[0-9] ms \[(hit|miss|bypass)\]$/<elapsed> ms [<cache>]/' "$1"
}

"$RFIDSQL" < "$WORK/script.sql" > "$WORK/embedded.out" 2>&1

"$RFIDSQL" --serve 127.0.0.1:0 > "$WORK/server.log" 2>&1 &
SRVPID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*serving on [0-9.]*:\([0-9][0-9]*\) .*/\1/p' "$WORK/server.log")"
  [ -n "$PORT" ] && break
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "server did not report its port:" >&2
  cat "$WORK/server.log" >&2
  exit 1
fi
"$RFIDSQL" --connect "127.0.0.1:$PORT" < "$WORK/script.sql" \
  > "$WORK/remote.out" 2>&1
kill -TERM "$SRVPID"
wait "$SRVPID"
SRVPID=""

# The script must have reached the end of both runs, with every command
# answered (no "unknown command") and the lint warning printed once.
if ! grep -q '^sessions: 1 active' "$WORK/embedded.out"; then
  echo "embedded transcript did not reach .stats:" >&2
  tail -5 "$WORK/embedded.out" >&2
  exit 1
fi
if grep -q 'unknown command' "$WORK/embedded.out"; then
  echo "embedded shell rejected a command:" >&2
  grep 'unknown command' "$WORK/embedded.out" >&2
  exit 1
fi
WARNINGS="$(grep -c '^warning: LINT \[delete-keep-overlap\]' "$WORK/embedded.out" || true)"
if [ "$WARNINGS" != 1 ]; then
  echo "expected the lint warning once, saw it $WARNINGS times" >&2
  exit 1
fi

if ! diff -u <(mask "$WORK/remote.out") <(mask "$WORK/embedded.out"); then
  echo "embedded and remote transcripts differ (- remote, + embedded)" >&2
  exit 1
fi
echo "transcripts identical ($(wc -l < "$WORK/embedded.out") lines)"
