#!/usr/bin/env bash
# Interleaved A/B timing of two prebuilt oobench binaries.
#
#   scripts/ab.sh <binA> <binB> <workload> <pairs> <seconds>
#
# Runs <pairs> pairs of `oobench --workload <workload> --seed 0
# --seconds <seconds> --trace 0`, one run at a time, alternating which
# side goes first in each pair so a slow spell on the host lands on both
# sides alike. Prints each run's frames_per_s and op_ms_p50, read from the
# final JSON line, then each side's median and how many pairs B won on
# frames_per_s. Fails if a run reports incorrect output, or if any run
# prints a different `sim_digest` line than the first: an A/B only times
# two builds of the same simulation.
#
# Build each side from its own checkout first, e.g.
#   cargo build --release --offline --manifest-path oobench/Cargo.toml
# and copy target/release/oobench aside so a rebuild cannot swap it.
set -euo pipefail

if [ $# -ne 5 ]; then
    echo "usage: $0 <binA> <binB> <workload> <pairs> <seconds>" >&2
    exit 2
fi
bin_a=$1 bin_b=$2 workload=$3 pairs=$4 seconds=$5

# Value of metric $2 in the oobench JSON line $1.
metric() {
    sed -E "s/.*\"$2\": \{\"value\": ([^,}]+).*/\1/" <<<"$1"
}

# Median of the numbers on stdin, one per line.
median() {
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) exit 1;
        m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2;
        printf "%.4f", m
    }'
}

declare -a fps_a fps_b p50_a p50_b
digest=
run() {
    local side=$1 bin=$2 pair=$3 out line run_digest fps p50
    out=$("$bin" --workload "$workload" --seed 0 --seconds "$seconds" --trace 0)
    line=$(tail -n 1 <<<"$out")
    if [[ $line != '{"correct": true'* ]]; then
        echo "run $side$pair reported incorrect output: $line" >&2
        exit 1
    fi
    run_digest=$(grep '^sim_digest ' <<<"$out" || true)
    if [ -z "$run_digest" ]; then
        echo "run $side$pair printed no sim_digest line" >&2
        exit 1
    fi
    if [ -z "$digest" ]; then
        digest=$run_digest
    elif [ "$run_digest" != "$digest" ]; then
        echo "run $side$pair moved the simulation: '$run_digest', earlier runs '$digest'" >&2
        exit 1
    fi
    fps=$(metric "$line" frames_per_s)
    p50=$(metric "$line" op_ms_p50)
    printf "pair %2d  %s  frames_per_s %10.4f  op_ms_p50 %10.4f\n" "$pair" "$side" "$fps" "$p50"
    if [ "$side" = A ]; then
        fps_a+=("$fps") p50_a+=("$p50")
    else
        fps_b+=("$fps") p50_b+=("$p50")
    fi
}

echo "A = $bin_a"
echo "B = $bin_b"
echo "workload $workload, $pairs pairs of $seconds s runs"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run A "$bin_a" "$i"
        run B "$bin_b" "$i"
    else
        run B "$bin_b" "$i"
        run A "$bin_a" "$i"
    fi
done
printf "median A  frames_per_s %10.4f  op_ms_p50 %10.4f\n" \
    "$(printf '%s\n' "${fps_a[@]}" | median)" "$(printf '%s\n' "${p50_a[@]}" | median)"
printf "median B  frames_per_s %10.4f  op_ms_p50 %10.4f\n" \
    "$(printf '%s\n' "${fps_b[@]}" | median)" "$(printf '%s\n' "${p50_b[@]}" | median)"
won=0
for ((i = 0; i < pairs; i++)); do
    if awk -v a="${fps_a[i]}" -v b="${fps_b[i]}" 'BEGIN { exit !(b > a) }'; then
        won=$((won + 1))
    fi
done
echo "B won $won/$pairs pairs on frames_per_s"
echo "$digest (both sides)"
