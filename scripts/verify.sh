#!/bin/sh
# Verification gates, in escalating cost order. Tier 1 is the hard gate
# every PR must keep green (see ROADMAP.md); tier 2 adds static analysis
# and the race detector, which the concurrent fan-outs (the detect loop
# and worker pool in internal/family, the robustness grid) treat as part
# of their correctness contract rather than an optional extra. Run from the repository root: ./scripts/verify.sh
set -eu
cd "$(dirname "$0")/.."

echo "== tier 1: build + tests =="
go build ./...
# -shuffle=on randomizes in-package test order so hidden inter-test
# state dependencies surface here (the seed prints on failure).
go test -shuffle=on ./...

echo "== tier 2: vet + race detector =="
go vet ./...
go test -race ./...

echo "verify: all tiers passed"
