#!/bin/sh
# Interface- and CLI-documentation check.
#
# Three layers:
#   1. Always on: every .mli under lib/core, lib/sequence, lib/store,
#      lib/server and lib/post must open with a module-level doc comment
#      ("(**" as its first token), so each public module states its
#      contract where odoc and readers look first; and no source under
#      lib/ or bin/ may call Marshal.
#   2. Always on (when the CLI binaries are built): every `--flag`
#      mentioned in README.md or data/README.md must appear, as a whole
#      token, in the generated --help of some CLI, so the README cannot
#      list a flag that was renamed or removed (a stale `--shard` does
#      not pass on `--shard-workers`).
#   3. When odoc is installed: `dune build @doc` must succeed with odoc
#      warnings promoted to errors (bad references, missing labels). The
#      CI container does not ship odoc, so this layer no-ops with a
#      notice there, mirroring tools/check_fmt.sh.

cd "$(dirname "$0")/.." || exit 1

missing=0
for f in $(find lib/core lib/sequence lib/store lib/server lib/post \
    -name '*.mli' 2>/dev/null | sort); do
  # first non-blank line must start the module doc comment
  first=$(sed -n '/[^[:space:]]/{p;q;}' "$f")
  case "$first" in
    "(**"*) ;;
    *)
      echo "check_docs: $f: missing module-level doc comment (must start with '(**')"
      missing=1
      ;;
  esac
done

if [ "$missing" = 1 ]; then
  echo "check_docs: FAILED (undocumented interfaces)"
  exit 1
fi

# Layer 1b: no Marshal in lib/ or bin/. Every byte that crosses a trust
# boundary goes through a typed, total decoder (FORMAT.md Appendices
# A-C); Marshal.from_string checks no types, so a CRC-valid hostile
# payload could crash the process that decodes it.
if grep -rn --include='*.ml' --include='*.mli' 'Marshal\.' lib bin; then
  echo "check_docs: FAILED (Marshal called in lib/ or bin/; use an Rgs_sequence.Wire codec)"
  exit 1
fi

# Layer 2: README flag staleness. Collect every --long-flag token the
# READMEs mention and demand each one appears in a generated --help page.
# Inside `dune runtest` the executables are declared deps (bin/*.exe in
# the build context); a direct source-tree run falls back to _build.
BIN=bin
[ -x "$BIN/rgsminer.exe" ] || BIN=_build/default/bin
if [ -x "$BIN/rgsminer.exe" ]; then
  help=$(
    "$BIN/rgsminer.exe" --help=plain 2>/dev/null
    "$BIN/rgsminer.exe" pack --help=plain 2>/dev/null
    "$BIN/rgsminerd.exe" --help=plain 2>/dev/null
    "$BIN/rgsworker.exe" --help=plain 2>/dev/null
    "$BIN/rgsgen.exe" --help=plain 2>/dev/null
    for sub in quest jboss clickstream tcas; do
      "$BIN/rgsgen.exe" "$sub" --help=plain 2>/dev/null
    done
    for sub in gen-quest comparators fig4 casestudy; do
      "$BIN/experiments.exe" "$sub" --help=plain 2>/dev/null
    done
  )
  # the same greedy token pattern on both sides: --max never matches
  # inside --max-gap
  documented=$(printf '%s\n' "$help" | grep -o -- '--[a-z][a-z0-9-]*' | sort -u)
  stale=0
  for readme in README.md data/README.md; do
    for flag in $(grep -o -- '--[a-z][a-z0-9-]*' "$readme" | sort -u); do
      if ! printf '%s\n' "$documented" | grep -qxF -- "$flag"; then
        echo "check_docs: $readme mentions $flag, which no CLI --help documents"
        stale=1
      fi
    done
  done
  if [ "$stale" = 1 ]; then
    echo "check_docs: FAILED (stale README flag listings)"
    exit 1
  fi
  echo "check_docs: README flags all present in generated --help"
else
  echo "check_docs: CLI binaries not built; skipping README flag check"
fi

if ! command -v odoc >/dev/null 2>&1; then
  echo "check_docs: odoc not installed; skipping 'dune build @doc' (doc comments verified)"
  exit 0
fi

# Run in a separate build dir so this works from inside `dune runtest`
# (the outer build holds the default _build lock). The root dune file
# promotes odoc warnings to errors for this build.
if ! env -u INSIDE_DUNE dune build @doc --build-dir _build_doc 2>doc.log; then
  echo "check_docs: FAILED ('dune build @doc' with warnings as errors):"
  cat doc.log
  rm -f doc.log
  exit 1
fi
rm -f doc.log
echo "check_docs: odoc build clean"
exit 0
