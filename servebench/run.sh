#!/usr/bin/env bash
# Builds dphist-server and the serving benchmark from the checkout in the
# current directory, then runs one benchmark run. Run from the checkout
# root:
#
#   bash servebench/run.sh --workload read-interactive --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dphist-server || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the root of a dphist checkout (need go.mod, cmd/dphist-server, servebench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# A checkout need not be a git work tree, so builds stamp no VCS state.
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--trace | -trace) trace="${args[i + 1]:-0}" ;;
	--trace=* | -trace=*) trace="${args[i]#*=}" ;;
	esac
done

go build -o "$out/dphist-server" ./cmd/dphist-server
cmd=servebench
if [[ "$trace" != 0 ]]; then
	cmd=servetrace
fi
(cd servebench && go build -o "$out/$cmd" "./cmd/$cmd")
exec "$out/$cmd" -server "$out/dphist-server" -scratch "$out/run" "$@"
