#!/usr/bin/env bash
# Interleaved A/B timing of two prebuilt oobench binaries.
#
#   scripts/ab.sh <binA> <binB> <workload> <pairs> <seconds> [seed]
#
# Runs <pairs> pairs of `oobench --workload <workload> --seed <seed>
# --seconds <seconds> --trace 0` (seed 0 unless given), one run at a
# time, alternating which side goes first in each pair so a slow spell on
# the host lands on both sides alike. Prints each run's frames_per_s,
# op_ms_p50, setup_s and peak_rss_mb, read from the final JSON line, then
# each side's quartiles (q1, median, q3) of all four and how many pairs B
# won on the first two: higher frames_per_s, lower op_ms_p50, ties
# counting for neither side. setup_s and peak_rss_mb are end-to-end
# metrics too, so their quartiles show a regression there. Then, from
# each run's `op N best` lines, prints every op's median best time on
# each side and the B/A ratio, and the same summed per op kind (the
# label up to its scene, e.g. `simulate OOVR+shed` or `simulate_edge`),
# so a change shows which ops it moved. Fails if
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

declare -a fps_a fps_b p50_a p50_b setup_a setup_b rss_a rss_b
digest=
# One line per op per run: side, op index, best ms, label (tab-separated).
ops_file=$(mktemp)
trap 'rm -f "$ops_file"' EXIT
run() {
    local side=$1 bin=$2 pair=$3 out line run_digest fps p50 setup rss
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
    setup=$(metric "$line" setup_s)
    rss=$(metric "$line" peak_rss_mb)
    sed -nE "s/^op +([0-9]+) best +([0-9.]+) ms median +[0-9.]+ ms of +[0-9]+  (.*)/$side\t\1\t\2\t\3/p" \
        <<<"$out" >>"$ops_file"
    printf "pair %2d  %s  frames_per_s %10.4f  op_ms_p50 %10.4f  setup_s %8.4f  peak_rss_mb %8.2f\n" \
        "$pair" "$side" "$fps" "$p50" "$setup" "$rss"
    if [ "$side" = A ]; then
        fps_a+=("$fps") p50_a+=("$p50") setup_a+=("$setup") rss_a+=("$rss")
    else
        fps_b+=("$fps") p50_b+=("$p50") setup_b+=("$setup") rss_b+=("$rss")
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
printf "A  setup_s       %s\n" "$(printf '%s\n' "${setup_a[@]}" | quartiles)"
printf "B  setup_s       %s\n" "$(printf '%s\n' "${setup_b[@]}" | quartiles)"
printf "A  peak_rss_mb   %s\n" "$(printf '%s\n' "${rss_a[@]}" | quartiles)"
printf "B  peak_rss_mb   %s\n" "$(printf '%s\n' "${rss_b[@]}" | quartiles)"
echo "B won $(wins fps_a fps_b higher)/$pairs pairs on frames_per_s (higher is better)"
echo "B won $(wins p50_a p50_b lower)/$pairs pairs on op_ms_p50 (lower is better)"
awk -F '\t' '
    # Median of the space-separated numbers in $1.
    function median(list,    n, a, i, j, t) {
        n = split(list, a, " ");
        for (i = 2; i <= n; i++) {
            t = a[i] + 0;
            for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j + 1] = a[j];
            a[j + 1] = t;
        }
        return (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2;
    }
    !($2 in label) { label[$2] = $4; order[++n] = $2 }
    { best[$1, $2] = best[$1, $2] " " $3 }
    END {
        print "per-op median of op-best times (ms):";
        for (k = 1; k <= n; k++) {
            op = order[k];
            a = median(best["A", op]); b = median(best["B", op]);
            printf "op %3d  A %10.4f  B %10.4f  B/A %6.3f  %s\n", op, a, b, b / a, label[op];
            kind = label[op];
            sub(/ [^ ]*@.*/, "", kind);
            if (!(kind in sum_a)) kinds[++m] = kind;
            sum_a[kind] += a; sum_b[kind] += b; all_a += a; all_b += b;
        }
        print "summed per op kind (ms):";
        for (k = 1; k <= m; k++) {
            kind = kinds[k];
            printf "%-24s A %10.4f  B %10.4f  B/A %6.3f\n", kind, sum_a[kind], sum_b[kind],
                sum_b[kind] / sum_a[kind];
        }
        printf "%-24s A %10.4f  B %10.4f  B/A %6.3f\n", "all ops", all_a, all_b, all_b / all_a;
    }' "$ops_file"
echo "$digest (both sides)"
