#!/bin/sh
# benchdiff.sh — compare named hot-path benchmarks between the working tree
# (HEAD plus uncommitted changes) and a baseline git ref, checked out into a
# throwaway worktree so the comparison never disturbs the working tree.
#
# Usage:
#   scripts/benchdiff.sh <ref> [bench-regex] [packages...]
#
# Defaults: bench-regex 'Step|RunStream|RunSharded|EmitChunk|Walk|Hierarchy|TLBAccess|Translate|PCCRecord|ReplayDecode',
# packages ./internal/vmm ./internal/workloads ./internal/tlb ./internal/ptw
# ./internal/pcc ./internal/trace. Examples:
#
#   scripts/benchdiff.sh HEAD~1
#   scripts/benchdiff.sh 3efe74e 'RunStream' ./internal/vmm
#   THRESHOLD=10 scripts/benchdiff.sh c43f4b5        # CI regression gate
#
# Each benchmark runs COUNT times (default 5, floor 5 — single samples on a
# noisy host are meaningless) on both trees with -benchmem, and the table
# compares per-benchmark MEDIANS of ns/op, B/op and allocs/op. Environment
# knobs:
#
#   BENCHTIME  per-benchmark budget per repetition (default 2s)
#   COUNT      repetitions per benchmark (default 5; values < 5 are raised)
#   THRESHOLD  max tolerated regression in percent; when set, any benchmark
#              whose median ns/op regresses by more than this — or whose
#              median B/op or allocs/op regresses by more than this (any
#              growth from a zero baseline counts) — exits 1 after the table
#              prints (unset: report only)
set -eu

ref=${1:?usage: scripts/benchdiff.sh <ref> [bench-regex] [packages...]}
regex=${2:-'Step|RunStream|RunSharded|EmitChunk|Walk|Hierarchy|TLBAccess|Translate|PCCRecord|ReplayDecode'}
if [ $# -ge 2 ]; then shift 2; else shift $#; fi
pkgs=${*:-"./internal/vmm ./internal/workloads ./internal/tlb ./internal/ptw ./internal/pcc ./internal/trace"}
benchtime=${BENCHTIME:-2s}
count=${COUNT:-5}
[ "$count" -ge 5 ] 2>/dev/null || count=5
threshold=${THRESHOLD:-}

root=$(git rev-parse --show-toplevel)
cd "$root"

# run_bench prints "name ns_per_op bytes_per_op allocs_per_op" once per
# repetition per benchmark ($3/$5/$7 of `go test -bench -benchmem` output).
run_bench() (
    cd "$1"
    # -run ^$ skips tests; -count repeats so medians absorb host noise.
    # shellcheck disable=SC2086 — word-splitting of $pkgs is intended.
    go test -run '^$' -bench "$regex" -benchtime "$benchtime" -benchmem -count "$count" $pkgs 2>/dev/null |
        awk '/^Benchmark/ { sub(/-[0-9]+$/, "", $1); print $1, $3, $5, $7 }'
)

# medians reduces "name v1 v2 v3" lines to one "name m1 m2 m3" line per
# name (per-column medians), preserving first-seen order.
medians() {
    awk '
        function med(s,  a, cnt, x, y, val) {
            cnt = split(s, a, " ")
            for (x = 2; x <= cnt; x++) {   # insertion sort: COUNT is tiny
                val = a[x] + 0
                for (y = x - 1; y >= 1 && a[y] + 0 > val; y--) a[y+1] = a[y]
                a[y+1] = val
            }
            if (cnt % 2) return a[(cnt+1)/2]
            return (a[cnt/2] + a[cnt/2+1]) / 2
        }
        {
            ns[$1] = ns[$1] " " $2; by[$1] = by[$1] " " $3; al[$1] = al[$1] " " $4
            if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 }
        }
        END {
            for (i = 1; i <= n; i++) {
                name = order[i]
                print name, med(ns[name]), med(by[name]), med(al[name])
            }
        }'
}

wt=$(mktemp -d "${TMPDIR:-/tmp}/benchdiff.XXXXXX")
cleanup() {
    git worktree remove --force "$wt/base" 2>/dev/null || true
    rm -rf "$wt"
}
trap cleanup EXIT INT TERM

echo "benchdiff: baseline $ref vs working tree ($(git rev-parse --short HEAD)+dirty?), $count reps x $benchtime" >&2
git worktree add --detach --quiet "$wt/base" "$ref"

before=$(run_bench "$wt/base" | medians)
after=$(run_bench "$root" | medians)

# regressed b a t: 1 when a regresses past t percent over b (any growth from
# a zero baseline is a regression).
regressed() {
    awk -v b="$1" -v a="$2" -v t="$3" 'BEGIN {
        if (b == 0) { print (a > 0) ? 1 : 0; exit }
        print ((a - b) / b * 100 > t) ? 1 : 0
    }'
}

echo
echo "== medians over $count reps (ns/op, B/op, allocs/op) =="
printf '%-30s %11s %11s %7s  %9s %9s  %7s %7s\n' \
    benchmark "base(ns)" "cur(ns)" delta "base(B)" "cur(B)" "base(al)" "cur(al)"
fail=0
for name in $(printf '%s\n' "$before" | awk '{ print $1 }'); do
    set -- $(printf '%s\n' "$before" | awk -v n="$name" '$1 == n { print $2, $3, $4 }')
    [ $# -eq 3 ] || continue
    bns=$1 bby=$2 bal=$3
    set -- $(printf '%s\n' "$after" | awk -v n="$name" '$1 == n { print $2, $3, $4 }')
    [ $# -eq 3 ] || continue
    ans=$1 aby=$2 aal=$3
    line=$(awk -v n="$name" -v bns="$bns" -v ans="$ans" -v bby="$bby" -v aby="$aby" \
        -v bal="$bal" -v aal="$aal" 'BEGIN {
        printf "%-30s %11.2f %11.2f %+6.1f%%  %9d %9d  %7d %7d", \
            n, bns, ans, (ans - bns) / (bns == 0 ? 1 : bns) * 100, bby, aby, bal, aal
    }')
    bad=""
    if [ -n "$threshold" ]; then
        [ "$(regressed "$bns" "$ans" "$threshold")" = 1 ] && bad="$bad ns/op"
        [ "$(regressed "$bby" "$aby" "$threshold")" = 1 ] && bad="$bad B/op"
        [ "$(regressed "$bal" "$aal" "$threshold")" = 1 ] && bad="$bad allocs/op"
    fi
    if [ -n "$bad" ]; then
        echo "$line  REGRESSION(>$threshold%:$bad)"
        fail=1
    else
        echo "$line"
    fi
done

if [ "$fail" = 1 ]; then
    echo
    echo "benchdiff: regression beyond ${threshold}% detected" >&2
    exit 1
fi
