#!/usr/bin/env bash
# List every `val` exported by lib/*/*.mli that no .ml file outside its
# own module mentions, and fail on any such name that
# scripts/dead_exports.keep does not list with a reason.
#
# "Mentions" is a word match over lib, bin, bench, perfbench, examples
# and test, so a name only tests use counts as used.  The match is
# coarse on purpose (a same-named value elsewhere also counts); it
# guards against regrowth, it does not prove a name is live.
#
# Keep-file lines are `<dir>/<Module>.<name>  <reason>`, e.g.
# `core/Claims.claim6_budgeted  budgeted form of a paper claim`; blank
# lines and `#` comments are ignored.  A keep line whose name is gone
# or now referenced also fails, so the file cannot go stale.
#
# Usage: bash scripts/dead_exports.sh   (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

keep=scripts/dead_exports.keep
search_dirs=(lib bin bench perfbench examples test)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "word file" for every identifier-like word of every .ml file.
find "${search_dirs[@]}" -name '*.ml' -not -path '*/_build/*' | sort |
  while read -r f; do
    grep -oE "[A-Za-z_][A-Za-z0-9_']*" "$f" | sort -u | sed "s|\$| $f|"
  done >"$tmp/words"

# "<dir>/<Module>.<name> <own .ml>" for every exported value.
for mli in lib/*/*.mli; do
  dir=$(basename "$(dirname "$mli")")
  base=$(basename "$mli" .mli)
  mod="$(printf '%s' "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" "$mli" |
    sort -u | sed "s|^|$dir/$mod. |; s|\$| ${mli%.mli}.ml|; s|\. |.|"
done >"$tmp/exports"

# An export is dead when every file mentioning its name is its own .ml.
awk 'NR == FNR { seen[$1] = seen[$1] " " $2; next }
     {
       name = $1; sub(/^.*\./, "", name)
       n = split(seen[name], files, " "); used = 0
       for (i = 1; i <= n; i++) if (files[i] != $2) used = 1
       if (!used) print $1
     }' "$tmp/words" "$tmp/exports" | sort -u >"$tmp/dead"

{ grep -vE '^[[:space:]]*(#|$)' "$keep" || true; } | awk '{ print $1 }' |
  sort -u >"$tmp/kept"

status=0
while read -r name; do
  echo "dead export: $name (delete it, un-export it, or give a reason in $keep)"
  status=1
done < <(comm -23 "$tmp/dead" "$tmp/kept")
while read -r name; do
  echo "stale keep line: $name (gone or referenced; drop it from $keep)"
  status=1
done < <(comm -13 "$tmp/dead" "$tmp/kept")
if [ "$status" -eq 0 ]; then
  echo "dead exports: none outside $keep ($(wc -l <"$tmp/kept") kept)"
fi
exit "$status"
