#!/usr/bin/env bash
# CLI hardening matrix: every numeric flag on every tool must reject a
# malformed value with exit code 2 (usage error) and a one-line
# "error: ..." diagnostic — never a std::stoi abort (SIGABRT, exit 134).
#
# Usage: cli_flag_matrix.sh BUILD_DIR
set -u

build="${1:?usage: cli_flag_matrix.sh BUILD_DIR}"
ctl="$build/fedtune_ctl"
loadgen="$build/fedtune_loadgen"
studyd="$build/fedtune_studyd"
for bin in "$ctl" "$loadgen" "$studyd"; do
  [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 1; }
done

fails=0

# expect_usage_error DESCRIPTION -- CMD ARGS...
# Asserts exit code 2 and an error line on stderr.
expect_usage_error() {
  local desc="$1"; shift; shift  # drop description and "--"
  local err rc
  # `timeout` guards against a parser that wrongly ACCEPTS the value: the
  # daemon tool would then start serving and hang the suite.
  err=$(timeout 10 "$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL [$desc]: expected exit 2, got $rc ($*)" >&2
    fails=$((fails + 1))
    return
  fi
  if ! printf '%s' "$err" | grep -q "error"; then
    echo "FAIL [$desc]: exit 2 but no error diagnostic ($*)" >&2
    fails=$((fails + 1))
    return
  fi
  echo "ok   [$desc]"
}

ctl_num_flags="--tenant --timeout"
loadgen_num_flags="--tenants --studies --trials --timeout"
studyd_num_flags="--pool-configs --rounds-per-slice --max-studies \
  --quota-studies --quota-fps --quota-burst --max-write-queue --repl-tenant"

# Every malformed shape a flag can see: non-numeric, trailing junk,
# negative (a bare stoull would silently wrap it to 2^64-1), empty.
for val in banana 12x -1 ""; do
  for flag in $ctl_num_flags; do
    expect_usage_error "ctl $flag=$val" -- \
      "$ctl" --socket /tmp/nope.sock "$flag" "$val" ping
  done
  for flag in $loadgen_num_flags; do
    expect_usage_error "loadgen $flag=$val" -- \
      "$loadgen" --tcp 127.0.0.1:1 "$flag" "$val"
  done
  for flag in $studyd_num_flags; do
    expect_usage_error "studyd $flag=$val" -- \
      "$studyd" --socket /tmp/nope.sock "$flag" "$val"
  done
done

# Malformed endpoint specs go through the same guarded path.
expect_usage_error "ctl --tcp bad port" -- "$ctl" --tcp 127.0.0.1:banana ping
expect_usage_error "loadgen --tcp no port" -- "$loadgen" --tcp 127.0.0.1
expect_usage_error "loadgen --failover bad" -- \
  "$loadgen" --tcp 127.0.0.1:1 --failover 127.0.0.1:0x50
expect_usage_error "studyd --tcp bad port" -- \
  "$studyd" --tcp 127.0.0.1:99999999
expect_usage_error "ctl wait bad timeout" -- \
  "$ctl" --socket /tmp/nope.sock wait s banana

# Frames are the only wire format: the flags that once picked the text
# protocol are gone, and scripts still passing them must fail loudly.
expect_usage_error "ctl --binary removed" -- \
  "$ctl" --tcp 127.0.0.1:1 --binary ping
expect_usage_error "loadgen --mode removed" -- \
  "$loadgen" --tcp 127.0.0.1:1 --mode text

# A hostile/corrupt daemon answering with something other than a frame
# (here a text line with a bogus "ok lines=banana" header) must be a clean
# protocol error (exit 1), not an abort or a retry loop. The fake daemon is
# a python one-shot server on a Unix socket, skipped without python3.
if command -v python3 >/dev/null 2>&1; then
  sock_dir=$(mktemp -d)
  sock="$sock_dir/fake.sock"
  python3 - "$sock" <<'PY' &
import socket, sys
srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
srv.bind(sys.argv[1])
srv.listen(1)
srv.settimeout(10)
try:
    conn, _ = srv.accept()
    conn.recv(4096)
    conn.sendall(b"ok lines=banana\n")
    conn.close()
except socket.timeout:
    pass
PY
  fake_pid=$!
  for _ in $(seq 50); do [ -S "$sock" ] && break; sleep 0.1; done
  "$ctl" --socket "$sock" metrics >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL [ctl non-frame response]: expected exit 1, got $rc" >&2
    fails=$((fails + 1))
  else
    echo "ok   [ctl non-frame response]"
  fi
  wait "$fake_pid" 2>/dev/null
  rm -rf "$sock_dir"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails flag-matrix case(s) failed" >&2
  exit 1
fi
echo "all flag-matrix cases passed"
