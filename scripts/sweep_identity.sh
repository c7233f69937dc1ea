#!/usr/bin/env bash
# Byte-identity check between two hm_sweep builds: run the same five
# uncached sweeps with each binary and diff every output file.
#
#   scripts/sweep_identity.sh OLD_HM_SWEEP NEW_HM_SWEEP [WORK_DIR]
#
# The sweeps (each with --no-cache --no-journal --quiet --out):
#   suite_jobs1   the full suite at --jobs 1
#   suite_jobs4   the full suite at --jobs 4
#   mesh_fig      --topology mesh --filter fig
#   quantum64     --quantum 64 --filter scaling
#   sampled_fig   --sample interval --filter fig
# Each run writes <name>.json and <name>.csv per experiment plus the
# rendered tables (stdout.txt) under WORK_DIR/{old,new}/<sweep>/.  WORK_DIR
# defaults to a fresh temporary directory and is kept for inspection.
#
# Exit status: 0 when every file is identical, 1 on any difference (the
# diff is printed), 2 on usage errors or a failed sweep.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 OLD_HM_SWEEP NEW_HM_SWEEP [WORK_DIR]" >&2
  exit 2
fi
old=$1
new=$2
work=${3:-$(mktemp -d -t sweep_identity.XXXXXX)}
for bin in "$old" "$new"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin is not an executable hm_sweep" >&2
    exit 2
  fi
done

sweeps=(
  "suite_jobs1|--jobs 1"
  "suite_jobs4|--jobs 4"
  "mesh_fig|--topology mesh --filter fig"
  "quantum64|--quantum 64 --filter scaling"
  "sampled_fig|--sample interval --filter fig"
)

for side in old new; do
  bin=$old
  [ "$side" = new ] && bin=$new
  for sweep in "${sweeps[@]}"; do
    name=${sweep%%|*}
    read -r -a args <<< "${sweep#*|}"
    dir="$work/$side/$name"
    rm -rf "$dir"
    mkdir -p "$dir"
    echo "$side: $name (${args[*]})" >&2
    # Exit status 3 means some point was quarantined; the outputs record
    # it, so the diff below still decides.
    status=0
    "$bin" run "${args[@]}" --no-cache --no-journal --quiet --out "$dir" \
      > "$dir/stdout.txt" || status=$?
    if [ "$status" -ne 0 ] && [ "$status" -ne 3 ]; then
      echo "error: $bin run ${args[*]} exited $status" >&2
      exit 2
    fi
  done
done

if diff -r "$work/old" "$work/new"; then
  echo "identical: $(find "$work/new" -type f | wc -l) files per side under $work"
else
  echo "DIFFERENT: see $work" >&2
  exit 1
fi
