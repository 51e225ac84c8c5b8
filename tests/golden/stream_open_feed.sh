#!/bin/sh
# `cr stream` that stops early must exit even though its feed stays open:
# the writer sends three events and then holds the pipe open without
# sending more, and `--max_windows=1` stops the run at the first window.
# Without the stop reaching the reader thread, `cr stream` would wait in
# read(2) until the writer closed the pipe. Checked on standard input (a
# pipe) and on a FIFO named by --trace; each run must exit 0 within 1 s
# and print its one window.
#
# Usage: stream_open_feed.sh <cr binary> <scratch dir>
cr=$1
out=$2
rm -rf "$out" && mkdir -p "$out" || exit 1

# Writes its PID (that of the `sleep` it becomes) to $out/writer.pid, then
# the three events, then holds its standard output open for 30 s. It is
# stopped with SIGPIPE, a death the shell does not report.
writer='echo $$ > "$1/writer.pid"; printf "1 1\n300 1\n600 1\n"; exec sleep 30'

# check <feed> <exit code>: the run exited in time and printed one window.
check() {
  if [ "$2" -eq 124 ]; then
    echo "cr stream ($1 feed) was still running 1 s after --max_windows=1 stopped it" >&2
    exit 1
  fi
  if [ "$2" -ne 0 ]; then
    echo "cr stream ($1 feed) exited $2" >&2
    exit 1
  fi
  if [ "$(grep -c '"window":' "$out/$1.jsonl")" -ne 1 ]; then
    echo "cr stream ($1 feed) did not print exactly one window:" >&2
    cat "$out/$1.jsonl" >&2
    exit 1
  fi
}

sh -c "$writer" sh "$out" | {
  timeout 1 "$cr" stream --window=256 --max_windows=1 > "$out/stdin.jsonl"
  echo $? > "$out/stdin.rc"
  kill -s PIPE "$(cat "$out/writer.pid")"
}
check stdin "$(cat "$out/stdin.rc")"

mkfifo "$out/feed.fifo" || exit 1
sh -c "$writer" sh "$out" > "$out/feed.fifo" &
timeout 1 "$cr" stream --trace="$out/feed.fifo" --window=256 --max_windows=1 > "$out/fifo.jsonl"
rc=$?
kill -s PIPE "$(cat "$out/writer.pid")"
check fifo $rc
