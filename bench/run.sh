#!/usr/bin/env bash
# Builds the two bench commands from source and runs one of them:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# --trace 0 runs the end-to-end runner (bench/), --trace 1 the traced run
# (bench/layers); every other argument is passed through. Run it from the
# repository root. The Go build cache, temporary files, binaries and
# checkpoint files all stay under .bench_build/ there, and the result line is
# the last line of standard output.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (need go.mod and bench/go.mod)" >&2
	exit 2
fi

trace=0
args=()
while [[ $# -gt 0 ]]; do
	case "$1" in
	--trace | -trace)
		[[ $# -ge 2 ]] || { echo "bench/run.sh: $1 needs a value" >&2; exit 2; }
		trace=$2
		shift 2
		;;
	--trace=* | -trace=*)
		trace=${1#*=}
		shift
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
case "$trace" in
0) cmd=bench ;;
1) cmd=layers ;;
*) echo "bench/run.sh: --trace must be 0 or 1, got $trace" >&2; exit 2 ;;
esac

mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

go -C "$root/bench" build -o "$build/bin/bench" . >&2
go -C "$root/bench" build -o "$build/bin/layers" ./layers >&2
exec "$build/bin/$cmd" "${args[@]}"
