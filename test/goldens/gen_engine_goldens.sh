#!/bin/sh
# Regenerate the engine goldens (test/goldens/engine_*.json).
#
#   test/goldens/gen_engine_goldens.sh PATH/TO/csteer.exe [OUT_DIR]
#
# One file per workload x policy x fabric, plus two runs in which a
# copy waits for a link that frees without an event (8-cluster ring,
# 4x2 mesh). Each run uses the default warmup. A file holds the
# command line, the MD5 of the Chrome trace an observed run writes,
# and two `simulate --json` documents, verbatim:
#   - "plain": no sink attached.
#   - "observed": a sink with interval telemetry and --trace-out.
# test_topo.ml's "engine goldens" case re-runs every file's command line
# and compares bytes. Re-pin only for a change meant to move results.
set -eu
exe=$1
out=${2:-$(dirname "$0")}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# golden NAME ARGS: run ARGS plain and observed into engine_NAME.json.
golden() {
  args="simulate $2 -n 2000"
  # shellcheck disable=SC2086
  "$exe" $args --json > "$tmp/plain.json"
  # shellcheck disable=SC2086
  "$exe" $args --json --stats-interval 300 \
    --trace-out "$tmp/trace.json" --trace-format json \
    > "$tmp/observed.json" 2> "$tmp/observed.log"
  if ! grep -q ' 0 dropped)' "$tmp/observed.log"; then
    echo "$args: the collector dropped events" >&2
    exit 1
  fi
  md5=$(md5sum "$tmp/trace.json" | cut -d' ' -f1)
  printf '{"args":"%s","trace_md5":"%s","plain":%s,"observed":%s}\n' \
    "$args" "$md5" "$(cat "$tmp/plain.json")" "$(cat "$tmp/observed.json")" \
    > "$out/engine_$1.json"
}

for w in mcf gzip-1 swim; do
  for p in op vc2 thermal; do
    for topo in p2p ring mesh4x2; do
      case $topo in
        mesh4x2) fabric="--topology mesh4x2" ;;
        *) fabric="-c 4 --topology $topo" ;;
      esac
      golden "${w}_${p}_${topo}" "-w $w -p $p $fabric"
    done
  done
done
golden mcf_vc2_ring8 "-w mcf -p vc2 -c 8 --topology ring"
golden adv-flip_mod3_mesh4x2 "-w adv-flip -p mod3 --topology mesh4x2"
