#!/bin/sh
# Fail when the committed fixture corpus has drifted from what
# gen_fixtures writes: every generated file must equal its committed copy
# byte for byte, and every committed .rgsdb/.ckpt must be generated.
# v1_store.rgsdb is exempt: it is the last version-1 store, frozen as
# committed, and no current tool writes that format.
#
# Usage: check_fixtures.sh GEN_FIXTURES_EXE FIXTURES_DIR
set -eu
gen=$1
fixtures=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$gen" "$tmp" > /dev/null
status=0
for f in "$tmp"/*; do
  name=$(basename "$f")
  if ! cmp -s "$f" "$fixtures/$name"; then
    echo "fixture drift: $name differs from gen_fixtures output" >&2
    status=1
  fi
done
for f in "$fixtures"/*.rgsdb "$fixtures"/*.ckpt; do
  name=$(basename "$f")
  [ "$name" = v1_store.rgsdb ] && continue
  if [ ! -e "$tmp/$name" ]; then
    echo "fixture drift: $name is not written by gen_fixtures" >&2
    status=1
  fi
done
exit $status
