# Verification targets for the relatch reproduction.
#
#   make check      vet + analyzers + build + race-enabled tests + fuzz smoke
#   make test       plain test suite (the tier-1 gate)
#   make lint       static lint over examples and generated benchmarks
#   make certify    retime + certify every seed benchmark, every approach
#   make analyze    relint: the full internal/analysis rule catalogue
#   make fuzz-smoke short fuzzing pass over the Verilog parser
#   make fuzz       longer fuzzing session (override FUZZTIME)
#   make bench      regenerate BENCH_pipeline.json (deterministic result
#                   table; timing numbers come from relbench/)
#   make bench-check regenerate the table into a temp file and diff it
#                   against BENCH_pipeline.json
#   make serve-smoke end-to-end smoke of rar -serve over real HTTP,
#                   including the SSE stage-event sequence
#   make queue-crash-smoke SIGKILL rar -serve mid-job, restart on the
#                   same -queue-dir, require the job to finish certified
#   make cluster-smoke three-node sharded cluster on loopback, SIGKILL
#                   one node mid-run, require every accepted job to
#                   finish certified

GO      ?= go
FUZZTIME ?= 10s
# Workers for the bench sweep; any value produces row-identical JSON
# (engine determinism contract), so parallelism is safe for the baseline.
BENCHJOBS ?= 4
# Benchmarks materialized as Verilog and re-linted through the parser;
# every built-in profile is additionally linted in-memory.
LINTBENCHES ?= s1196,s1238,s1423,s1488

.PHONY: check test vet analyze build race lint certify fuzz-smoke fuzz bench bench-check serve-smoke queue-crash-smoke cluster-smoke

check: vet analyze build race fuzz-smoke

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's own invariants, machine-enforced by the internal/analysis
# catalogue (stdlib-only go/ast + go/types): map-iteration determinism
# (the PR 5 bug class), context threading, sentinel error discipline,
# journal-first ordering in the queue, hot-loop allocation hygiene, obs
# span discipline, bare-panic and stderr conventions, plus the PR 8
# concurrency suite — guarded-by fields, repo-wide lock ordering,
# goroutine lifecycle, channel ownership, atomic/plain mixing. Exit 1
# on any finding, with a per-rule count breakdown on stderr; see README
# "Static analysis" for the suppression syntax.
analyze:
	$(GO) build -o build/relint ./cmd/relint
	./build/relint ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order so
# inter-test state dependencies surface; the seed prints on failure for
# reproduction with -shuffle=SEED.
race:
	$(GO) test -race -shuffle=on ./...

# lint must stay finding-free (exit 0) on everything the repo ships:
# the example programs (vet), every built-in benchmark profile, and the
# benchgen-materialized Verilog netlists re-read through the parser.
# rar -lint exits 4 on error-severity findings, failing the target.
lint:
	$(GO) vet ./examples/...
	$(GO) build -o build/rar ./cmd/rar
	$(GO) build -o build/benchgen ./cmd/benchgen
	./build/benchgen -out build/lint-benches -benchmarks $(LINTBENCHES)
	@set -e; for f in build/lint-benches/*.v; do \
		echo "lint $$f"; ./build/rar -verilog $$f -lint >/dev/null; \
	done
	@set -e; for b in $$(./build/rar -list | awk '{print $$1}'); do \
		echo "lint -bench $$b"; ./build/rar -bench $$b -lint >/dev/null; \
	done

# certify must stay finding-free on everything the repo ships: every
# seed benchmark, retimed under every approach, must produce a clean
# certificate. rar -certify exits 5 on findings, failing the target.
certify:
	$(GO) build -o build/rar ./cmd/rar
	@set -e; for b in $$(./build/rar -list | awk '{print $$1}'); do \
		for a in grar base nvl evl rvl; do \
			echo "certify -bench $$b -approach $$a"; \
			./build/rar -bench $$b -approach $$a -certify >/dev/null; \
		done; \
	done

# Result table: every seed benchmark under every approach, one JSON row
# each, with solver-effort counters (simplex pivots, SSP augmenting
# paths) pulled from the pipeline trace. Every column is deterministic,
# so the committed BENCH_pipeline.json is byte-stable at any -j.
bench:
	$(GO) build -o build/rar ./cmd/rar
	./build/rar -bench-json -bench all -approach grar,base,nvl,evl,rvl -j $(BENCHJOBS) > BENCH_pipeline.json
	@echo "wrote BENCH_pipeline.json"

# Gate on the committed table: rebuild it into a temp file and diff it
# against BENCH_pipeline.json. Every column must match, the solver-effort
# counters (pivots, augmentations) included; a change that moves them
# regenerates the table with make bench and says so.
bench-check:
	$(GO) build -o build/rar ./cmd/rar
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	./build/rar -bench-json -bench all -approach grar,base,nvl,evl,rvl -j $(BENCHJOBS) > $$tmp/new.json; \
	if ! diff BENCH_pipeline.json $$tmp/new.json; then \
		echo "bench-check: rebuilt table drifted from BENCH_pipeline.json (< committed, > rebuilt)"; \
		exit 1; \
	fi; \
	echo "bench-check: rebuilt table matches BENCH_pipeline.json"

# End-to-end smoke of the HTTP serve mode: start rar -serve, submit a
# benchmark job over real HTTP, attach an SSE consumer to its events
# feed, poll it to completion, and require (a) a clean certificate,
# (b) the full queued → leased → solving → certifying → done stage
# sequence with a pivot-count progress event on the SSE stream, and
# (c) per-stage latency histograms and a drained queue-depth gauge on
# /metrics. Cleans up the server on any exit.
SERVEADDR ?= 127.0.0.1:18417
serve-smoke:
	$(GO) build -o build/rar ./cmd/rar
	@set -e; \
	./build/rar -serve $(SERVEADDR) -j 2 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	up=0; for i in $$(seq 1 50); do \
		if curl -fsS http://$(SERVEADDR)/healthz >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.2; \
	done; \
	test $$up = 1 || { echo "serve-smoke: server never came up"; exit 1; }; \
	curl -fsS http://$(SERVEADDR)/readyz >/dev/null \
		|| { echo "serve-smoke: /readyz not ready on a fresh server"; exit 1; }; \
	resp=$$(curl -fsS -X POST http://$(SERVEADDR)/jobs \
		-d '{"bench":"s1196","approach":"grar","c":1.0}'); \
	echo "$$resp"; \
	id=$$(printf '%s' "$$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	test -n "$$id" || { echo "serve-smoke: no job id in response"; exit 1; }; \
	curl -fsS -N -m 60 http://$(SERVEADDR)/jobs/$$id/events > build/serve-sse.out & ssepid=$$!; \
	out=; for i in $$(seq 1 100); do \
		out=$$(curl -fsS http://$(SERVEADDR)/jobs/$$id); \
		case "$$out" in \
			*'"status":"done"'*) break;; \
			*'"status":"dead"'*) echo "$$out"; exit 1;; \
		esac; \
		sleep 0.2; \
	done; \
	echo "$$out"; \
	case "$$out" in \
		*'"certified":true'*) ;; \
		*) echo "serve-smoke: job finished without a clean certificate"; exit 1;; \
	esac; \
	wait $$ssepid || { echo "serve-smoke: SSE consumer failed"; exit 1; }; \
	stages=$$(grep -o '"stage":"[a-z]*"' build/serve-sse.out | cut -d: -f2- | tr -d '"' | tr '\n' ' '); \
	echo "serve-smoke: SSE stages: $$stages"; \
	case "$$stages" in \
		"queued leased solving certifying done "*) ;; \
		*) echo "serve-smoke: bad SSE stage sequence"; cat build/serve-sse.out; exit 1;; \
	esac; \
	grep -q '"counter":"pivots"' build/serve-sse.out \
		|| { echo "serve-smoke: no pivots progress event on the SSE stream"; exit 1; }; \
	grep -q '^event: end' build/serve-sse.out \
		|| { echo "serve-smoke: SSE stream did not finish with an end event"; exit 1; }; \
	curl -fsS http://$(SERVEADDR)/metrics | grep -q '^relatch_engine_submitted_total 1$$' \
		|| { echo "serve-smoke: metrics missing submission counter"; exit 1; }; \
	curl -fsS http://$(SERVEADDR)/metrics \
		| grep -q '^relatch_job_stage_seconds_count{stage="solve"} 1$$' \
		|| { echo "serve-smoke: metrics missing solve-stage histogram"; exit 1; }; \
	curl -fsS http://$(SERVEADDR)/metrics | grep -q '^relatch_queue_depth 0$$' \
		|| { echo "serve-smoke: metrics missing a drained queue-depth gauge"; exit 1; }; \
	echo "serve-smoke ok"

# Durability smoke: start rar -serve with a journal directory, submit a
# job, SIGKILL the server before it can be polled, restart on the same
# -queue-dir, and require the journaled job to be recovered and driven
# to a certified result. Exercises the write-ahead journal, the stale
# pid-lock steal, and the restart pump end to end over real HTTP. The
# server runs without -cache-dir, so its results live in the implied
# <queue-dir>/cache: the smoke requires the job's entry there, deletes
# it, restarts once more, and requires the done job to be re-run to a
# certified result rather than answered from anywhere else.
QSMOKEADDR ?= 127.0.0.1:18427
queue-crash-smoke:
	$(GO) build -o build/rar ./cmd/rar
	@set -e; \
	qdir=$$(mktemp -d); pid=; \
	trap 'kill -9 $$pid 2>/dev/null || true; rm -rf $$qdir' EXIT; \
	start() { \
		./build/rar -serve $(QSMOKEADDR) -j 2 -queue-dir $$qdir & pid=$$!; \
		up=0; for i in $$(seq 1 50); do \
			if curl -fsS http://$(QSMOKEADDR)/healthz >/dev/null 2>&1; then up=1; break; fi; \
			sleep 0.2; \
		done; \
		test $$up = 1 || { echo "queue-crash-smoke: server never came up"; exit 1; }; \
	}; \
	settle() { \
		out=; for i in $$(seq 1 150); do \
			out=$$(curl -fsS http://$(QSMOKEADDR)/jobs/$$id); \
			case "$$out" in \
				*'"status":"done"'*) break;; \
				*'"status":"dead"'*) echo "$$out"; exit 1;; \
			esac; \
			sleep 0.2; \
		done; \
		echo "$$out"; \
		case "$$out" in \
			*'"status":"done"'*) ;; \
			*) echo "queue-crash-smoke: job never settled after restart"; exit 1;; \
		esac; \
		case "$$out" in \
			*'"certified":true'*) ;; \
			*) echo "queue-crash-smoke: recovered job lacks a clean certificate"; exit 1;; \
		esac; \
	}; \
	start; \
	resp=$$(curl -fsS -X POST http://$(QSMOKEADDR)/jobs \
		-d '{"bench":"s1423","approach":"grar","c":1.0}'); \
	echo "$$resp"; \
	id=$$(printf '%s' "$$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	key=$$(printf '%s' "$$resp" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p'); \
	test -n "$$id" || { echo "queue-crash-smoke: no job id in response"; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	echo "queue-crash-smoke: killed pid $$pid, restarting on $$qdir"; \
	start; \
	settle; \
	curl -fsS http://$(QSMOKEADDR)/readyz >/dev/null \
		|| { echo "queue-crash-smoke: restarted server not ready"; exit 1; }; \
	entry=$$qdir/cache/$$key.json; \
	test -f "$$entry" || { echo "queue-crash-smoke: no cache entry at $$entry"; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	rm "$$entry"; \
	echo "queue-crash-smoke: killed pid $$pid, deleted $$entry, restarting on $$qdir"; \
	start; \
	settle; \
	test -f "$$entry" || { echo "queue-crash-smoke: re-run left no cache entry at $$entry"; exit 1; }; \
	echo "queue-crash-smoke ok"

# Sharded-serving smoke: three rar -serve nodes on loopback form a
# static cluster (consistent-hash routing, peer cache tier, one journal
# and cache directory per node). Jobs are submitted round-robin across
# the nodes, one node is SIGKILLed mid-run and restarted on its own
# -queue-dir, and every accepted job must still reach done with a clean
# certificate — the degrade-never-fail routing and PR 6 crash recovery
# composed over real HTTP. Forwarded jobs are polled at the owner shard
# the submit response names in X-Cluster-Node — the node whose journal
# durably holds the job — so polling survives the accepting node's
# restart.
CS1 ?= 127.0.0.1:18451
CS2 ?= 127.0.0.1:18452
CS3 ?= 127.0.0.1:18453
CSPEERS = n1=http://$(CS1),n2=http://$(CS2),n3=http://$(CS3)
cluster-smoke:
	$(GO) build -o build/rar ./cmd/rar
	@set -e; \
	d=$$(mktemp -d); p1=; p2=; p3=; \
	trap 'kill -9 $$p1 $$p2 $$p3 2>/dev/null || true; rm -rf $$d' EXIT; \
	./build/rar -serve $(CS1) -j 2 -node-id n1 -peers '$(CSPEERS)' -queue-dir $$d/q1 -cache-dir $$d/c1 & p1=$$!; \
	./build/rar -serve $(CS2) -j 2 -node-id n2 -peers '$(CSPEERS)' -queue-dir $$d/q2 -cache-dir $$d/c2 & p2=$$!; \
	./build/rar -serve $(CS3) -j 2 -node-id n3 -peers '$(CSPEERS)' -queue-dir $$d/q3 -cache-dir $$d/c3 & p3=$$!; \
	for a in $(CS1) $(CS2) $(CS3); do \
		up=0; for i in $$(seq 1 50); do \
			if curl -fsS http://$$a/healthz >/dev/null 2>&1; then up=1; break; fi; \
			sleep 0.2; \
		done; \
		test $$up = 1 || { echo "cluster-smoke: $$a never came up"; exit 1; }; \
	done; \
	: > $$d/jobs; \
	submit() { \
		resp=$$(curl -fsS -D $$d/hdr -X POST http://$$1/jobs \
			-d "{\"bench\":\"s1196\",\"approach\":\"grar\",\"c\":$$2}") \
			|| { echo "cluster-smoke: submit to $$1 failed"; exit 1; }; \
		id=$$(printf '%s' "$$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
		test -n "$$id" || { echo "cluster-smoke: no job id from $$1: $$resp"; exit 1; }; \
		owner=$$(sed -n 's/^[Xx]-[Cc]luster-[Nn]ode: *\([a-z0-9]*\).*/\1/p' $$d/hdr); \
		case "$$owner" in \
			n1) a=$(CS1);; n2) a=$(CS2);; n3) a=$(CS3);; *) a=$$1;; \
		esac; \
		echo "$$a $$id" >> $$d/jobs; \
	}; \
	submit $(CS1) 1.0; submit $(CS2) 1.1; submit $(CS3) 1.2; \
	submit $(CS1) 1.3; submit $(CS2) 1.4; \
	kill -9 $$p3; wait $$p3 2>/dev/null || true; \
	echo "cluster-smoke: killed n3 (pid $$p3) mid-run"; \
	submit $(CS1) 1.5; submit $(CS2) 1.6; \
	submit $(CS1) 1.7; submit $(CS2) 1.8; \
	./build/rar -serve $(CS3) -j 2 -node-id n3 -peers '$(CSPEERS)' -queue-dir $$d/q3 -cache-dir $$d/c3 & p3=$$!; \
	up=0; for i in $$(seq 1 50); do \
		if curl -fsS http://$(CS3)/healthz >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.2; \
	done; \
	test $$up = 1 || { echo "cluster-smoke: n3 never came back"; exit 1; }; \
	while read a id; do \
		ok=0; out=; for i in $$(seq 1 300); do \
			out=$$(curl -fsS http://$$a/jobs/$$id 2>/dev/null || true); \
			case "$$out" in \
				*'"status":"done"'*) \
					case "$$out" in *'"certified":true'*) ok=1;; esac; break;; \
				*'"status":"dead"'*) echo "cluster-smoke: job $$id dead: $$out"; exit 1;; \
			esac; \
			sleep 0.2; \
		done; \
		test $$ok = 1 || { echo "cluster-smoke: job $$id on $$a never finished certified: $$out"; exit 1; }; \
	done < $$d/jobs; \
	echo "cluster-smoke: all $$(wc -l < $$d/jobs) accepted jobs done-certified"; \
	curl -fsS http://$(CS1)/metrics | grep -q '^relatch_cluster_peers 2$$' \
		|| { echo "cluster-smoke: n1 metrics missing the peers gauge"; exit 1; }; \
	echo "cluster-smoke ok"

fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/verilog/

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=5m ./internal/verilog/
