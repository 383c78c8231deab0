#!/usr/bin/env bash
# Serve transport smoke: pipe one stream through the real
# `slimfast_cli serve --dims 4 6 3` and diff its replies against a
# checked-in expectation. The stream is written by a CRLF client,
# pipelined (every line sent before any reply is read), carries one
# 100,000-byte line past the line cap, and ends without a newline.
#
# usage: serve_transport_smoke.sh /path/to/slimfast_cli /path/to/expected
set -u

CLI=${1:?usage: serve_transport_smoke.sh /path/to/slimfast_cli /path/to/expected}
EXPECTED=${2:?usage: serve_transport_smoke.sh /path/to/slimfast_cli /path/to/expected}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/slimfast-transport-smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

{
  printf 'OBS 0 0 1\r\nOBS 1 0 1\r\nOBS 1 2 2\r\nOBS 2 1 0\r\nTRUTH 0 1\r\n'
  printf 'COMMIT\r\nDRAIN\r\nQUERY 0\r\nQUERY\t1\r\n  POSTERIOR 1  \r\n'
  printf 'POSTERIOR 5\r\n'
  head -c 100000 /dev/zero | tr '\0' x
  printf '\nQUERY 2\nBOGUS 1\nSTATS now\nQUERY 9'
} | "$CLI" serve --dims 4 6 3 > "$WORK/replies" 2> "$WORK/stderr"
status=${PIPESTATUS[1]}
if [ "$status" -ne 0 ]; then
  echo "serve_transport_smoke: FAIL: serve exited with status $status" >&2
  cat "$WORK/stderr" >&2
  exit 1
fi
if ! diff -u "$EXPECTED" "$WORK/replies"; then
  echo "serve_transport_smoke: FAIL: replies differ from $EXPECTED" >&2
  exit 1
fi
echo "serve_transport_smoke: OK ($(wc -l < "$WORK/replies") replies)"
