# Convenience targets; `make verify` is the pre-merge gate.

.PHONY: all build test bench chaos chaos-smoke jobs-smoke chaos-live-smoke cluster-smoke saturation-smoke service-smoke bench-smoke lint lint-report verify clean

all: build

build:
	dune build

test:
	dune runtest --force

# Live targets append this to their command: exit 2 means the sandbox
# has no loopback sockets, which is a skip, not a failure.
SKIP_NO_SOCKETS = rc=$$?; \
	if [ $$rc -eq 2 ]; then echo "$@: skipped (no loopback sockets)"; \
	elif [ $$rc -ne 0 ]; then exit $$rc; fi

# Paper figures, ablations, fault tables and microbenchmarks (~minutes).
# Wall-clock and per-layer numbers come from perfbench/ (BENCHMARK.json).
bench:
	dune exec bench/main.exe

# Full chaos sweep: 100 seeds x every stack x every fault plan (~a minute
# single-threaded; cells run jobs-wide on OCaml 5 domains, bit-identical
# to --jobs 1 by construction).
chaos:
	dune exec bin/ics_cli.exe -- chaos --seeds 100 --jobs $$(nproc)

# Quick sweep for the pre-merge gate (a few seconds).  --replay-check reruns
# one seed per cell and fails on any fingerprint divergence, so the replay
# commands the sweep prints stay trustworthy.
chaos-smoke:
	dune exec bin/ics_cli.exe -- chaos --seeds 5 --replay-check

# Parallel-sweep determinism fence: a tiny sweep run at --jobs 1 and
# --jobs 2, every trace fingerprint compared — any divergence means
# domain-shared state leaked into a cell and fails the gate.
jobs-smoke:
	dune exec bin/ics_cli.exe -- chaos --seeds 2 --plans drop,blackout --jobs 2 --jobs-check

# Chaos cells as forked loopback-TCP clusters: the seeded plans compiled
# onto real sockets through the same interposer.  Includes the blackout
# cell, so the S2.2 ct-on-ids counterexample must reproduce on the live
# backend too.
chaos-live-smoke:
	dune exec bin/ics_cli.exe -- chaos --live --seeds 1 --stacks ct-indirect,ct-on-ids --plans drop,mixed,blackout; $(SKIP_NO_SOCKETS)

# Live 3-node loopback cluster, checker-verified.
cluster-smoke:
	dune exec bin/ics_cli.exe -- cluster -n 3 --algo ct --broadcast flood --count 10 --timeout 20; $(SKIP_NO_SOCKETS)

# Saturation knee smoke: a tiny offered-load sweep of the batched/
# pipelined/ring stack, replay-checked for sim determinism with every
# point gated by the full checker battery, then one live point.
saturation-smoke:
	dune exec bin/ics_cli.exe -- bench --offered-load 200,400 --duration 0.5 --batch 8 --pipeline 2 --flush 1 --dissemination ring --n 5 --replay-check
	dune exec bin/ics_cli.exe -- bench --live --offered-load 500 --duration 0.5 --batch 8 --pipeline 2 --flush 1 --dissemination ring --n 5; $(SKIP_NO_SOCKETS)

# Closed-loop service smoke: a few hundred KV/ledger client sessions
# through the full stack, replay-checked for sim determinism and gated by
# the abcast + application checker batteries; the live point must land on
# the simulator's final state hash bit-for-bit.
service-smoke:
	dune exec bin/ics_cli.exe -- service --clients 200 --requests 3 --replay-check
	dune exec bin/ics_cli.exe -- service --clients 200 --requests 3 --live; $(SKIP_NO_SOCKETS)

# One-second runs of the three benchmark workloads.  Each run checks its
# own pins (the sim-paper latency fingerprint, the sim-service
# default-seed state hash) and the checker batteries — live-service also
# a clean barrier exit on every node and replica state-hash agreement —
# and reports them as "correct" in the JSON summary on its last stdout
# line.  live-service is skipped where loopback sockets are unavailable.
LOOPBACK_OK = python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); s.listen(1)' 2>/dev/null

bench-smoke:
	@for w in sim-paper sim-service live-service; do \
	  if [ $$w = live-service ] && ! $(LOOPBACK_OK); then \
	    echo "bench-smoke: live-service skipped (no loopback sockets)"; continue; \
	  fi; \
	  out=$$(python3 perfbench/run.py --workload $$w --seconds 1) || exit 1; \
	  last=$$(printf '%s\n' "$$out" | tail -n 1); \
	  echo "$$w: $$last"; \
	  printf '%s' "$$last" | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin).get("correct") is not True)' \
	    || { echo "bench-smoke: $$w is not correct"; exit 1; }; \
	done

# Determinism & protocol-safety linter over lib/, bin/ and examples/
# (exit 0 clean, 1 findings, 2 internal error).
lint:
	dune exec bin/ics_lint.exe -- --root .

# Same run, SARIF 2.1.0 to _build/lint.sarif for CI annotation.  The
# report is written even when findings exist; the exit code still gates.
lint-report:
	@mkdir -p _build
	dune exec bin/ics_lint.exe -- --root . --format sarif > _build/lint.sarif; \
	rc=$$?; echo "lint-report: _build/lint.sarif"; exit $$rc

verify: build test lint lint-report chaos-smoke jobs-smoke chaos-live-smoke cluster-smoke saturation-smoke service-smoke bench-smoke

clean:
	dune clean
