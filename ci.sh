#!/bin/sh
# CI gate: format, vet, build, and run the full test suite under the race
# detector. The parallel executor's determinism tests (quick_test.go,
# parallel_test.go, faulttolerance_test.go) run with worker pools > 1 here,
# so -race exercises the concurrent Transfer/Combine/Map/Reduce paths for
# real data races. The smoke step then exercises the observability layer
# end to end: generate a graph, run a traced NR job on the heterogeneous
# topology, validate both trace exports with surfer-analyze, attribute the run's makespan with
# surfer-analyze, and check the bench -json report against its own schema
# via the -compare gate.
set -eux

test -z "$(gofmt -l .)"
# Vet fail-fast: vet the package groups separately (commands, library,
# root) so the first failing group stops the gate right there with its
# own diagnostics, instead of interleaving every group's findings in one
# combined run.
for pkgs in ./internal/... ./cmd/... .; do
    go vet "$pkgs"
done
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

# Determinism-contract static gate (docs/LINTS.md): wall-clock/entropy
# calls — direct or laundered through helper-package call chains (SL005) —
# map-iteration order leaking into ordered output, concurrency outside the
# engine pool, order-sensitive float folds, mutation of published CSR
# views, and undocumented trace/blame/bench vocabulary. The -json run is
# kept as a build artifact (the auditable suppression + baseline
# inventory); its exit status is the gate: zero unsuppressed error-severity
# findings, warn findings only if parked in lint-baseline.json. Runs
# before the race gate, so contract violations fail faster than the tests
# that would (sometimes) catch them dynamically.
go run ./cmd/surfer-lint -json ./... > "$smoke/surfer-lint.json"
go build ./...
# Lint-engine self-test under the race detector: the analyzer that gates
# everything else gets the same concurrency scrutiny as the engine.
go test -race ./internal/lint
# Fast fault-model gate: failover, transient faults, retry/backoff,
# speculation, checkpoint rollback and the chaos soak (short mode) under
# the race detector, before the full suite. TestNilScheduleHotPathAllocatesNothing
# pins that the fault-free hot path stays allocation-free.
go test -race -short -run 'Fault|Chaos' . ./internal/...
# Elastic-membership gate: join/drain/migration determinism, the drain
# deadline→failure degradation, the autoscale policy, drain-aware job
# service rerouting, the elastic churn soak (short mode), and the
# deployment-path agreement test (a drain and a heartbeat-timed kill give
# identical metrics through Build+NewRunner, the bench harness and the
# scheduler), all under the race detector.
go test -race -short -run 'Elastic|Drain|Join|Migrat|Autoscale|Dormant|Retire|DeploymentPaths' . ./internal/...
# Scheduler gate, mirroring the fault gate: the multi-tenant job service's
# policy goldens, scheduling invariants, cross-worker determinism battery,
# committed fuzz corpus, the service-vs-engine differential test and the
# drift tests (model features that must hold on the service path too)
# under the race detector (the planning pool runs concurrently at workers
# 4 and 8).
go test -race -run 'Policy|Golden|Starvation|Inversion|Admission|Determinism|Fuzz|Differential|Drift' ./internal/jobsvc
# Metrics gate: the windowed time-series fold and alert engine under the
# race detector — the live path runs as a Recorder observer inside runs
# whose worker pools are concurrent, so the collector gets the same
# scrutiny as the engine. The chaos golden pins live==derived byte
# identity across workers on a seeded fault+elastic schedule.
go test -race ./internal/metrics
go test -race ./...

go run ./cmd/surfer-gen -kind social -vertices 4096 -seed 42 -out "$smoke/g.srfg"
# Partitioning smoke: both strategies' distributed-partitioning cost model
# (the bandwidth-aware sketch walk's Steps, the oblivious random subsets)
# must run end to end and print an elapsed-time estimate each.
go run ./cmd/surfer-part -graph "$smoke/g.srfg" -topology t2 -machines 8 \
    -levels 3 -dot "$smoke/s.dot" > "$smoke/part.txt"
test "$(grep -c 'est. elapsed time' "$smoke/part.txt")" -eq 2
# Bad sizes are errors naming the size with a nonzero exit, never a Go
# panic.
go run ./cmd/surfer-submit -gen 2 -seed 7 -out "$smoke/bad-jobs.json"
for args in "surfer-run -graph $smoke/g.srfg -machines 0" \
    "surfer-part -graph $smoke/g.srfg -machines 0" \
    "surfer-run -graph $smoke/g.srfg -levels -1" \
    "surfer-submit -jobs $smoke/bad-jobs.json -levels -1"; do
    if go run ./cmd/$args 2> "$smoke/bad.err"; then
        echo "$args: accepted a bad size" >&2
        exit 1
    fi
    if grep -q 'panic:' "$smoke/bad.err" ||
        ! grep -q 'no machines\|negative level' "$smoke/bad.err"; then
        cat "$smoke/bad.err" >&2
        exit 1
    fi
done
go run ./cmd/surfer-run -graph "$smoke/g.srfg" -app nr -topology t3 \
    -machines 8 -levels 2 -trace "$smoke/trace.json" -events "$smoke/run.events"
go run ./cmd/surfer-analyze -trace "$smoke/trace.json"
go run ./cmd/surfer-analyze -trace "$smoke/run.events" -breakdown
# Critical-path analysis gate: the analyzer must accept its own capture
# (nonzero exit on a malformed or acausal stream) and emit the blame table.
go run ./cmd/surfer-analyze -trace "$smoke/run.events" > "$smoke/report.txt"
grep -q "blame attribution" "$smoke/report.txt"
# Fig 10 capture smoke: the fault-tolerance experiment's event stream holds
# the kill run — the analyzer accepts it, its breakdown shows the failed
# machine, the lost task and the retry — and the series derived from it
# carry the cluster disk I/O the figure plots.
go run ./cmd/surfer-bench -experiment fig10 -vertices 4096 -machines 8 \
    -levels 3 -events "$smoke/f.events" > /dev/null
go run ./cmd/surfer-analyze -trace "$smoke/f.events" > /dev/null
go run ./cmd/surfer-analyze -trace "$smoke/f.events" -breakdown > "$smoke/f-breakdown.txt"
grep -q "lost=1 FAILED" "$smoke/f-breakdown.txt"
grep -q "retries=1" "$smoke/f-breakdown.txt"
go run ./cmd/surfer-metrics -trace "$smoke/f.events" -json | grep -q '"disk-bytes"'
# Bench report schema + regression gate: a small table1 run must emit a
# valid surfer-bench/v1 report, and comparing it against itself must pass.
go run ./cmd/surfer-bench -experiment table1 -vertices 8192 -machines 8 \
    -levels 3 -json "$smoke/bench.json" > /dev/null
go run ./cmd/surfer-analyze -compare "$smoke/bench.json" "$smoke/bench.json" -threshold 5%
# And a tampered copy (parmetis_seconds inflated ~10x) must fail the gate.
sed 's/"parmetis_seconds": \([0-9]\)/"parmetis_seconds": 9\1/' \
    "$smoke/bench.json" > "$smoke/bench-bad.json"
if go run ./cmd/surfer-analyze -compare "$smoke/bench.json" "$smoke/bench-bad.json" -threshold 5%; then
    echo "compare gate failed to catch a regression" >&2
    exit 1
fi
# Elastic membership smoke: a JSON fault file with a spot-instance join
# (out-of-topology target — surfer-run must expand the cluster for it)
# and a drain must run end to end, report the migration in the summary,
# surface the migration blame category in the analyzer, and the
# autoscaler must accept its own capture and emit a replayable plan.
cat > "$smoke/elastic.json" <<'EOF'
{
  "joins":  [{"machine": 8, "at": 0.0005, "nics": 62.5e6}],
  "drains": [{"machine": 3, "at": 0.001, "deadline": 1.0}]
}
EOF
go run ./cmd/surfer-run -graph "$smoke/g.srfg" -app nr -topology t1 \
    -machines 8 -levels 3 -fail "$smoke/elastic.json" \
    -events "$smoke/elastic.events" -metrics "$smoke/live.series" > "$smoke/elastic.txt"
grep -q "elasticity:.*1 join(s), 1 drain(s)" "$smoke/elastic.txt"
# Metrics determinism smoke: series sampled live (recorder observer during
# the run above) must be byte-identical to series derived offline from the
# run's own capture — the two-path contract EXPERIMENTS.md's recipe relies
# on, checked here on a seeded fault+elastic schedule.
go run ./cmd/surfer-metrics -trace "$smoke/elastic.events" -window 0.25 -json \
    > "$smoke/derived.series"
cmp "$smoke/live.series" "$smoke/derived.series"
# "migration=" only appears in a per-stage blame row, i.e. when the
# critical path actually spent seconds on the drain's eviction.
go run ./cmd/surfer-analyze -trace "$smoke/elastic.events" | grep -q "migration="
go run ./cmd/surfer-analyze -autoscale "$smoke/elastic.events" -json > "$smoke/plan.json"
go run ./cmd/surfer-run -graph "$smoke/g.srfg" -app nr -topology t1 \
    -machines 8 -levels 3 -fail "$smoke/plan.json" > /dev/null
# Multi-tenant scheduler smoke + regression gate: generate a workload,
# replay it through the job service under a small transient fault file (a
# degraded link and a drop window, so the shared engine loop's drop →
# timeout → backoff retry path runs from the CLI), attribute the stream
# (the analyzer must accept the capture, list the scheduler's
# queued-preempted category and blame a stage on retry backoff), then
# regenerate the multitenant bench at the committed baseline's scale and
# gate its virtual-time metrics against BENCH_multitenant.json.
go run ./cmd/surfer-submit -gen 6 -tenants 3 -seed 7 -out "$smoke/jobs.json"
cat > "$smoke/transient.json" <<'EOF'
{
  "links": [{"src": 0, "dst": 1, "from": 0, "until": 0.05, "factor": 4}],
  "drops": [{"src": 1, "dst": 2, "from": 0, "until": 0.002}]
}
EOF
go run ./cmd/surfer-submit -jobs "$smoke/jobs.json" -policy fair \
    -faults "$smoke/transient.json" -events "$smoke/jobs.events" > "$smoke/submit.txt"
grep -q "Jain fairness" "$smoke/submit.txt"
go run ./cmd/surfer-analyze -trace "$smoke/jobs.events" > "$smoke/jobs-report.txt"
grep -q "queued-preempted" "$smoke/jobs-report.txt"
grep -q "retry-backoff=" "$smoke/jobs-report.txt"
go run ./cmd/surfer-bench -experiment multitenant -vertices 4096 -levels 4 \
    -machines 8 -json "$smoke/mt.json" > /dev/null
go run ./cmd/surfer-analyze -compare BENCH_multitenant.json "$smoke/mt.json" -threshold 5%
# CLI surface smoke: every tool the README quickstart documents must build
# and print its usage on -h. (go run exits nonzero on -h; the pipeline's
# status is grep's, which is what we assert.)
for tool in surfer-gen surfer-part surfer-run surfer-bench \
    surfer-lint surfer-analyze surfer-submit surfer-tune surfer-metrics; do
    go run "./cmd/$tool" -h 2>&1 | grep -q '^Usage'
done
# Auto-tuner smoke: a tiny deterministic search (virtual objective, fixed
# seed) must converge on a winner and print the trace.
go run ./cmd/surfer-tune -app nr -vertices 4096 -machines 8 -levels 3 \
    -budget 8 -seed 42 > "$smoke/tune.txt"
grep -q '^best:' "$smoke/tune.txt"
# Fast-path scale gate: regenerate the 65k row of the scale trajectory at
# the committed baseline's exact parameters and gate its virtual metrics
# against BENCH_scale.json (-compare checks only the entries present in
# the new report, so the baseline's 1M rows ride along as reference).
go run ./cmd/surfer-bench -experiment scale -sizes 65536 -vertices 65536 \
    -machines 32 -levels 6 -seed 42 -json "$smoke/scale.json" > /dev/null
go run ./cmd/surfer-analyze -compare BENCH_scale.json "$smoke/scale.json" -threshold 5%
