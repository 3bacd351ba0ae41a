#!/bin/sh
# Runs the whole benchmark from the root of the repository: the four
# measured runs, then the four traced runs, one after the other (never
# at once: they would share the two cores).
#
#   bench/run.sh                  one measured and one traced run per workload
#   bench/run.sh --repeat 10      ten measured runs per workload, each with
#                                 another seed, then the spread of every
#                                 end-to-end metric against its bound
#   bench/run.sh --seconds 5      shorter timed windows (default: run_seconds
#                                 of BENCHMARK.json)
#
# Results: bench/out/<workload>.json (last measured run),
# bench/out/trace_<workload>.json (traced run), bench/out/runs.jsonl (every
# measured run of this invocation; input to `go run ./bench -compare`).
set -eu
cd "$(dirname "$0")/.."

repeat=1
seed=1
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
while [ $# -gt 0 ]; do
	case "$1" in
	--repeat) repeat=$2 ;;
	--seed) seed=$2 ;;
	--seconds) seconds=$2 ;;
	*) echo "usage: bench/run.sh [--repeat N] [--seed S] [--seconds T]" >&2; exit 2 ;;
	esac
	shift 2
done

workloads="kv_uniform skew_hot kv_durable scan_readmostly"
mkdir -p bench/out
go build -o bench/out/bench ./bench
rm -f bench/out/runs.jsonl

i=0
while [ "$i" -lt "$repeat" ]; do
	for w in $workloads; do
		# Stale segments must never leak into setup_s.
		rm -rf bench/out/data-*
		bench/out/bench --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace 0
		cat "bench/out/$w.json" >>bench/out/runs.jsonl
	done
	i=$((i + 1))
done
for w in $workloads; do
	rm -rf bench/out/data-*
	bench/out/bench --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1
done
if [ "$repeat" -gt 1 ]; then
	# A set of runs compared with itself: the spread columns are the
	# repeatability check, and a metric whose spread exceeds its bound
	# reads "unresolved".
	bench/out/bench -compare bench/out/runs.jsonl bench/out/runs.jsonl
fi
