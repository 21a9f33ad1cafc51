#!/usr/bin/env bash
# Interleaved A/B timing of two prebuilt oobench binaries.
#
#   scripts/ab.sh <binA> <binB> <workload> <pairs> <seconds> [seed]
#
# Runs <pairs> pairs of `oobench --workload <workload> --seed <seed>
# --seconds <seconds> --trace 0` (seed 0 unless given), one run at a
# time, alternating which side goes first in each pair so a slow spell on
# the host lands on both sides alike. Prints each run's frames_per_s and
# op_ms_p50, read from the final JSON line, then each side's quartiles
# (q1, median, q3) and how many pairs B won on each metric: higher
# frames_per_s, lower op_ms_p50, ties counting for neither side. Fails if
# a run reports incorrect output, or if any run prints a different
# `sim_digest` line than the first: an A/B only times two builds of the
# same simulation.
#
# Build each side from its own checkout first, e.g.
#   cargo build --release --offline --manifest-path oobench/Cargo.toml
# and copy target/release/oobench aside so a rebuild cannot swap it.
set -euo pipefail

if [ $# -ne 5 ] && [ $# -ne 6 ]; then
    echo "usage: $0 <binA> <binB> <workload> <pairs> <seconds> [seed]" >&2
    exit 2
fi
bin_a=$1 bin_b=$2 workload=$3 pairs=$4 seconds=$5 seed=${6:-0}

# Value of metric $2 in the oobench JSON line $1.
metric() {
    sed -E "s/.*\"$2\": \{\"value\": ([^,}]+).*/\1/" <<<"$1"
}

# First quartile, median and third quartile of the numbers on stdin, one
# per line, each interpolated linearly between the two nearest ranks.
quartiles() {
    sort -g | awk '
        function at(p,    r, i) {
            r = 1 + (NR - 1) * p; i = int(r);
            return (i >= NR) ? v[NR] : v[i] + (r - i) * (v[i + 1] - v[i]);
        }
        { v[NR] = $1 }
        END {
            if (NR == 0) exit 1;
            printf "q1 %12.4f  median %12.4f  q3 %12.4f", at(0.25), at(0.5), at(0.75)
        }'
}

# Number of pairs whose B value ($2 array name) beats A's ($1) in the
# direction $3 (higher or lower).
wins() {
    local -n a=$1 b=$2
    local won=0 i
    for ((i = 0; i < pairs; i++)); do
        if awk -v a="${a[i]}" -v b="${b[i]}" -v dir="$3" \
            'BEGIN { exit !(dir == "higher" ? b > a : b < a) }'; then
            won=$((won + 1))
        fi
    done
    echo "$won"
}

declare -a fps_a fps_b p50_a p50_b
digest=
run() {
    local side=$1 bin=$2 pair=$3 out line run_digest fps p50
    out=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
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
echo "workload $workload, seed $seed, $pairs pairs of $seconds s runs"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run A "$bin_a" "$i"
        run B "$bin_b" "$i"
    else
        run B "$bin_b" "$i"
        run A "$bin_a" "$i"
    fi
done
printf "A  frames_per_s  %s\n" "$(printf '%s\n' "${fps_a[@]}" | quartiles)"
printf "B  frames_per_s  %s\n" "$(printf '%s\n' "${fps_b[@]}" | quartiles)"
printf "A  op_ms_p50     %s\n" "$(printf '%s\n' "${p50_a[@]}" | quartiles)"
printf "B  op_ms_p50     %s\n" "$(printf '%s\n' "${p50_b[@]}" | quartiles)"
echo "B won $(wins fps_a fps_b higher)/$pairs pairs on frames_per_s (higher is better)"
echo "B won $(wins p50_a p50_b lower)/$pairs pairs on op_ms_p50 (lower is better)"
echo "$digest (both sides)"
