#!/bin/sh
# Formatting check, gated on ocamlformat being installed.
#
# Default mode reports unformatted files as warnings and exits 0, so the
# check can sit in the default `dune runtest` tier without breaking
# environments that lack ocamlformat (the CI container does not ship it).
# Set RGS_FMT_STRICT=1 to turn reports into a failure.

if ! command -v ocamlformat >/dev/null 2>&1; then
  echo "check_fmt: ocamlformat not installed; skipping formatting check"
  exit 0
fi

cd "$(dirname "$0")/.." || exit 1

dirty=0
for f in $(find lib bin test examples \( -name '*.ml' -o -name '*.mli' \) 2>/dev/null | sort); do
  if ! ocamlformat --check "$f" >/dev/null 2>&1; then
    echo "check_fmt: needs formatting: $f"
    dirty=1
  fi
done

if [ "$dirty" = 1 ] && [ "${RGS_FMT_STRICT:-0}" = 1 ]; then
  echo "check_fmt: FAILED (RGS_FMT_STRICT=1)"
  exit 1
fi
if [ "$dirty" = 1 ]; then
  echo "check_fmt: warnings only (set RGS_FMT_STRICT=1 to fail)"
fi
exit 0
