#!/bin/sh
# Regenerate pinned `repro` outputs and check their md5s.
#
#     scripts/identity.sh [name...]
#
# Each name is a `# <name>: <repro arguments>` entry of results/identity.md5
# (all entries by default).  The script builds bin/repro.exe, runs each
# named command with its stdout in _build/identity/<name>.txt, and checks
# those files against the pinned lines with `md5sum -c`.  It exits non-zero
# when a name is unknown, a run fails or a digest differs.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
pins=$root/results/identity.md5
out=$root/_build/identity

names=$(sed -n 's/^# \([a-z0-9-]*\): .*/\1/p' "$pins")
[ $# -gt 0 ] && names=$*

dune build --root "$root" --display quiet ./bin/repro.exe
repro=$root/_build/default/bin/repro.exe
mkdir -p "$out"
sums=$out/identity.md5
: > "$sums"
status=0
for name in $names; do
  args=$(sed -n "s/^# $name: //p" "$pins")
  pin=$(grep " $name\.txt\$" "$pins" || true)
  if [ -z "$args" ] || [ -z "$pin" ]; then
    echo "identity: no pinned entry named '$name'" >&2
    exit 2
  fi
  echo "identity: repro $args" >&2
  # shellcheck disable=SC2086 # the pinned arguments are word-split on purpose
  if ! (cd "$root" && "$repro" $args) > "$out/$name.txt"; then
    echo "identity: $name: repro exited non-zero" >&2
    status=1
  fi
  echo "$pin" >> "$sums"
done
(cd "$out" && md5sum -c "$sums") || status=1
exit $status
