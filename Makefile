# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test bench bench-par verify examples soak faults chaos netchaos fsck figures kill-resume serve bench-serve bench-netchaos serve-smoke largen perfbench cache-clean journal-clean clean

all: build

build:
	dune build @all

test:
	dune runtest

# Regenerate every experiment table (CSV twins land in results/).
bench:
	dune exec bench/main.exe

# Same tables, all cores + result cache (byte-identical stdout; the
# exec pool/cache counters go to stderr).  See docs/PARALLEL.md.
bench-par:
	MAXIS_JOBS=auto dune exec bench/main.exe

# One-call audit of the paper's assertions at a gap-valid parameter point.
verify:
	dune exec bin/maxis_lb.exe -- verify --ell 4 --players 3

examples:
	dune exec examples/quickstart.exe
	dune exec examples/two_party_warmup.exe
	dune exec examples/hardness_amplification.exe
	dune exec examples/quadratic_construction.exe
	dune exec examples/congest_simulation.exe
	dune exec examples/unweighted_transform.exe
	dune exec examples/player_protocol.exe

soak:
	MAXIS_SOAK=100 dune exec test/test_soak.exe

# Fault injection: hardened delivery vs adversarial links (docs/FAULTS.md).
faults:
	dune exec bench/main.exe -- FAULTS

# Supervised execution under combined fault plans: chaos test suite +
# the seeded bench leg (docs/RESILIENCE.md).
chaos:
	dune exec test/test_chaos.exe
	dune exec bench/main.exe -- CHAOS

# Network chaos: socket fault injection, connection-lifecycle and
# balancer-failover suite + the seeded bench leg (docs/SERVING.md).
netchaos:
	dune exec test/test_netchaos.exe
	dune exec bench/main.exe -- NETCHAOS

# Offline integrity scan of the result cache and sweep journals;
# quarantines invalid entries (exit 2 when damage was found).
fsck:
	dune exec bin/maxis_lb.exe -- fsck

figures:
	dune exec bench/main.exe -- F1-F6

# Crash-safety check: SIGKILL a sweep mid-run, resume it, diff the final
# CSVs against an uninterrupted reference (docs/RESILIENCE.md).
kill-resume:
	bash scripts/kill_resume.sh

# Run the solve daemon on the default sockets (docs/SERVING.md);
# Ctrl-C drains gracefully.
serve:
	dune exec bin/maxis_lb.exe -- serve \
	  --listen unix:results/serve.sock \
	  --metrics-listen unix:results/serve-metrics.sock --jobs 4

# Daemon capability table + multi-client load verdicts (in-process;
# writes results/serve_capabilities.csv).  Timing the daemon is the
# perfbench serve-solve workload.
bench-serve:
	dune exec bench/main.exe -- SERVE

# Serving layer under seeded network chaos (in-process; writes
# results/netchaos_verdicts.csv).
bench-netchaos:
	dune exec bench/main.exe -- NETCHAOS

# End-to-end smoke: real daemon process -> load over the wire ->
# Prometheus scrape -> SIGTERM drain (also the CI serve job).
serve-smoke:
	bash scripts/serve_smoke.sh

# Large-n engine checks: the CSR/executor differential battery (pinned
# counts at n = 10³ and 10⁴, parity at jobs 1, 2, 4 and 8) and the
# allocation guard (docs/PERF.md).  Timings live in perfbench.
largen:
	dune exec test/test_csr.exe
	dune exec test/test_perf_guard.exe

# The benchmark (perfbench/README.md): build from source, run workload W
# (sparse-sweep, gadget-cut, theorem5-gather, serve-solve) for SECONDS
# of timed passes; the last stdout line is the JSON result.
W ?= gadget-cut
SEED ?= 1
SECONDS ?= 25
perfbench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds $(SECONDS) --trace 0

# Drop cached exact-MIS results; the next run recomputes and repopulates.
cache-clean:
	rm -rf results/cache

# Drop sweep journals (completion records only; cached values survive).
journal-clean:
	rm -rf results/journal

clean:
	dune clean
	rm -rf results figures test_output.txt bench_output.txt
