#!/bin/sh
# digests.sh <base-rev> — report which simulated results HEAD moves.
#
# Builds the benchmark (bench/) and the CLI (cmd/datampi-bench) in
# temporary git worktrees at <base-rev> and at HEAD, runs each of the six
# benchmark workloads once (-child -trace 0 -seconds 1) at seeds 1 and 5,
# and prints every workload's sim_digest and out_digest for both commits
# side by side, marking the ones that moved. Then it diffs
# `datampi-bench run all -quick` between the two commits, without the
# `completed in` lines (host time). It only reports: a moved digest is
# expected of a change to a simulated cost and a finding for any other.
# About 1.5 minutes on 2 cores.
set -eu

if [ $# -ne 1 ]; then
	echo "usage: $0 <base-rev>" >&2
	exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify HEAD)
tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	git worktree remove --force "$tmp/head" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

for side in base head; do
	if [ "$side" = base ]; then rev=$base; else rev=$head; fi
	git worktree add --quiet --detach "$tmp/$side" "$rev"
	go build -C "$tmp/$side/bench" -o "$tmp/bench-$side" .
	go build -C "$tmp/$side" -o "$tmp/cli-$side" ./cmd/datampi-bench
done

# digests <bench-binary> <workload> <seed> prints "<sim_digest> <out_digest>".
digests() {
	if out=$("$1" -child -workload "$2" -trace 0 -seconds 1 -seed "$3"); then
		sim=$(printf '%s\n' "$out" | sed -n 's/.*"sim_digest":"\([^"]*\)".*/\1/p')
		res=$(printf '%s\n' "$out" | sed -n 's/.*"out_digest":"\([^"]*\)".*/\1/p')
		echo "${sim:-none} ${res:-none}"
	else
		echo "failed failed"
	fi
}

echo "base $base"
echo "head $head"
printf '%-13s %4s  %-16s %-16s %-5s  %-16s %-16s %s\n' workload seed sim_base sim_head "" out_base out_head ""
moved=0
for seed in 1 5; do
	for w in fig3-shuffle fig3-scan fig6-apps fig3-staged tenants-mix kernel-stub; do
		set -- $(digests "$tmp/bench-base" "$w" "$seed") $(digests "$tmp/bench-head" "$w" "$seed")
		simMark="" outMark=""
		[ "$1" = "$3" ] || { simMark=moved; moved=$((moved + 1)); }
		[ "$2" = "$4" ] || { outMark=moved; moved=$((moved + 1)); }
		printf '%-13s %4s  %-16s %-16s %-5s  %-16s %-16s %s\n' "$w" "$seed" "$1" "$3" "$simMark" "$2" "$4" "$outMark"
	done
done
echo "$moved digest(s) moved"

(cd "$tmp" && ./cli-base run all -quick | grep -v 'completed in' >all-base.txt) || true
(cd "$tmp" && ./cli-head run all -quick | grep -v 'completed in' >all-head.txt) || true
if diff -u "$tmp/all-base.txt" "$tmp/all-head.txt" >"$tmp/all.diff"; then
	echo "run all -quick: identical"
else
	echo "run all -quick: differs"
	cat "$tmp/all.diff"
fi
