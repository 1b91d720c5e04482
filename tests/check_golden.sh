#!/bin/sh
# Reruns one result command and compares its stdout with a committed golden
# byte for byte.  On a mismatch the first differing lines are shown.
#
# usage: check_golden.sh <golden-file> <program> [flags...]
GOLDEN="$1"
shift
if [ -z "$GOLDEN" ] || [ "$#" -eq 0 ]; then
  echo "usage: check_golden.sh <golden-file> <program> [flags...]" >&2
  exit 2
fi

OUT=$(mktemp) || exit 2
trap 'rm -f "$OUT"' EXIT
"$@" > "$OUT" || exit 1
if ! cmp -s "$GOLDEN" "$OUT"; then
  echo "output differs from $GOLDEN:" >&2
  diff "$GOLDEN" "$OUT" | head -n 20 >&2
  exit 1
fi
