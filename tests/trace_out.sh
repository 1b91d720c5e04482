#!/bin/sh
# Runs a dlb_sweep command with --trace-out into a fresh temporary directory
# and prints the one Chrome trace file it wrote, so check_golden.sh can
# compare a trace byte for byte.
#
# usage: trace_out.sh <dlb_sweep> [flags...]
if [ "$#" -eq 0 ]; then
  echo "usage: trace_out.sh <dlb_sweep> [flags...]" >&2
  exit 2
fi
DIR=$(mktemp -d) || exit 2
trap 'rm -rf "$DIR"' EXIT
"$@" --trace-out="$DIR" > /dev/null || exit 1
set -- "$DIR"/*.json
if [ "$#" -ne 1 ] || [ ! -f "$1" ]; then
  echo "trace_out.sh: expected one trace file in $DIR" >&2
  exit 1
fi
cat "$1"
