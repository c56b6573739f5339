#!/usr/bin/env bash
# Flag parity between two `repro` builds.
#
# Usage: flag_parity.sh OLD_REPRO NEW_REPRO OUTDIR
#
# Runs `--stats` smoke, table2, fig5, fig6 and tail-report under no flag
# and under each engine flag, plus gap-report under no flag,
# --no-refine and --gap-target 0.05, with both binaries. Each run's
# stdout is masked (wall times, rates, steal/fork counts, snapshot
# paths) and diffed; a `.diff` file is left in OUTDIR for every
# mismatch. Exits 1 if any pair differs. Each side runs in its own
# directory under OUTDIR, so the report commands' BENCH_*.json
# snapshots land there. A binary that still writes them next to its
# own sources will rewrite the snapshots of the checkout it was built in.
set -u
old=$(realpath "$1") new=$(realpath "$2") out=$3
mkdir -p "$out/old" "$out/new"
mask() {
  sed -E \
    -e 's/[0-9]+\.[0-9]+s\b/<t>/g' \
    -e 's/in [0-9.]+s/in <t>/g' \
    -e 's/ [0-9.]+ cells\/s/ <rate> cells\/s/g' \
    -e 's/steals: .*/steals: <sched>/' \
    -e 's/^wrote .*/wrote <path>/' \
    -e 's/^([a-z0-9-]+ +[0-9.]+ +[0-9.]+ +[0-9.]+x) .*/\1 <timing>/' \
    -e 's/; GUBPI_NO_KERNEL\)/; --no-kernel)/'
}
flags=("" "--no-kernel" "--no-prune" "--no-tail" "--no-refine" "--gap-target 0.05"
  "--cache-cap 8" "--threads off" "--lint")
status=0
run_pair() { # NAME ARGS...
  local name=$1
  shift
  for side in old new; do
    local bin=$old
    [ "$side" = new ] && bin=$new
    (
      cd "$out/$side" || exit 1
      "$bin" "$@" 2>/dev/null | mask >"$name.out"
      echo "exit ${PIPESTATUS[0]}" >>"$name.out"
    )
  done
  if diff -u "$out/old/$name.out" "$out/new/$name.out" >"$out/$name.diff"; then
    rm "$out/$name.diff"
  else
    echo "DIFF $name"
    status=1
  fi
}
for cmd in smoke table2 fig5 fig6 tail-report; do
  for f in "${flags[@]}"; do
    # shellcheck disable=SC2086 # $f is zero, one or two words
    run_pair "$cmd${f:+_}${f// /_}" --stats $f $cmd
  done
done
for f in "" "--no-refine" "--gap-target 0.05"; do
  # shellcheck disable=SC2086
  run_pair "gap-report${f:+_}${f// /_}" $f gap-report
done
echo "status $status"
exit $status
