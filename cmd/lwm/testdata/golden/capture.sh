#!/usr/bin/env bash
# Captures the lwm golden transcript: builds lwm from this checkout,
# runs the steps of commands.txt in an empty directory, and writes each
# step's stdout (<name>.stdout), the sorted span names of its -trace
# output (<name>.spans) and every file the steps wrote back next to
# commands.txt. Run it from the repository root:
#
#	bash cmd/lwm/testdata/golden/capture.sh
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/lwm" ./cmd/lwm
mkdir "$work/run"
cd "$work/run"
while read -r name args; do
	case "$name" in '' | '#'*) continue ;; esac
	if [ "$name" = copy ]; then
		cp "$here/$args" .
		continue
	fi
	# shellcheck disable=SC2086 # the arguments are split on purpose
	"$work/lwm" $args >"$here/$name.stdout" 2>"$work/stderr"
	case " $args " in
	*" -trace "*)
		sed -n '/^trace /,$p' "$work/stderr" | tail -n +2 | awk '{print $1}' |
			LC_ALL=C sort >"$here/$name.spans"
		;;
	esac
done <"$here/commands.txt"
cp ./* "$here/"
