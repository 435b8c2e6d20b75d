package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"repro/internal/analyze"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/jobsvc"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
	"repro/internal/trace"
)

// rankTolerance is the absolute per-vertex tolerance between a distributed
// rank vector and apps.ReferenceNR, as in the apps tests.
const rankTolerance = 1e-12

// Phases, each timed from the outside: set-up builds a deployment; each
// repetition on it runs the jobs, then observes their event stream.
const (
	phaseSetup = iota
	phaseRun
	phaseObserve
	numPhases
)

var phaseNames = [numPhases]string{"setup", "run", "observe"}

// named is one measured value.
type named struct {
	name  string
	value float64
}

// result is what one repetition (run, then observe) produced.
type result struct {
	// run and observe are host seconds.
	run, observe float64
	// virtual are the end-to-end simulated metrics and counts the exact
	// per-layer counters; both must repeat exactly in every repetition.
	virtual []named
	counts  []named
	// attempted and failed count checked operations; problems say why
	// operations failed.
	attempted, failed int
	problems          []string
}

// fail marks n operations failed for the reason given.
func (r *result) fail(n int, format string, args ...any) {
	r.failed = min(r.failed+n, r.attempted)
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload: an input generator that runs before
// any timing, a set-up that turns the input bytes into a deployment, and a
// repetition that runs the jobs on it, observes their event stream and
// checks the outputs.
type workload struct {
	name  string
	gen   func(seed int64, sz size) (*inputs, error)
	setup func(in *inputs, sz size, tr *tracer) (*deployment, error)
	run   func(d *deployment, in *inputs, sz size, tr *tracer) (*result, error)
	// reps is the number of repetitions per set-up.
	reps int
}

// The PageRank workloads repeat run and observe twice per set-up, whose
// partitioning costs more than both. The service workload sets up for every
// repetition: its planner caches plans, so a second repetition on one
// planner would skip planning.
var workloads = []workload{
	{name: "social-pagerank-prop", gen: genSocialPageRank, setup: deploySketch, run: socialPageRankProp, reps: 2},
	{name: "rmat-pagerank-mr", gen: genRMATPageRank, setup: deployRandom, run: rmatPageRankMR, reps: 2},
	{name: "multitenant-observed", gen: genMultitenant, setup: deployService, run: multitenantObserved, reps: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clock times one phase from the outside in CPU seconds and, when tracing,
// brackets it with a phase span. Each phase starts from a collected heap,
// so it pays for collecting its own garbage, not its predecessor's.
type clock struct {
	tr    *tracer
	span  int
	start float64
}

func startPhase(tr *tracer, p int) clock {
	runtime.GC()
	start := cpuSeconds()
	return clock{tr: tr, span: tr.begin(phaseNames[p], ""), start: start}
}

func (c clock) stop() float64 {
	c.tr.end(c.span)
	return cpuSeconds() - c.start
}

// deployment is what set-up produced: a partitioned, placed graph (the
// PageRank workloads) or a job planner over one (the service workload).
type deployment struct {
	topo    *cluster.Topology
	g       *graph.Graph
	pg      *storage.PartitionedGraph
	pl      *partition.Placement
	reps    *storage.Replicas
	planner *jobsvc.Planner
}

func deploySketch(in *inputs, sz size, tr *tracer) (*deployment, error) {
	return deploy(in, sz, false, tr)
}

func deployRandom(in *inputs, sz size, tr *tracer) (*deployment, error) {
	return deploy(in, sz, true, tr)
}

// deploy is the set-up path of the PageRank workloads: load the graph bytes,
// partition bandwidth-aware, build partition storage, then place partitions
// (the partitioner's placement, or a random one when random is set) and
// their replicas.
func deploy(in *inputs, sz size, random bool, tr *tracer) (*deployment, error) {
	topo := pagerankTopology(sz)
	sp := tr.begin("graph.ReadFrom", "graph.load_s")
	g, err := graph.ReadFrom(bytes.NewReader(in.graph))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("partition.BandwidthAware", "partition.s")
	part := partition.BandwidthAware(g, topo, sz.levels, partition.Options{Seed: systemSeed})
	tr.end(sp)
	sp = tr.begin("storage.Build", "storage.s")
	pg, err := storage.Build(g, part.Partitioning)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	pl := part.Placement
	if random {
		sp = tr.begin("partition.RandomPlacement", "partition.s")
		pl = partition.RandomPlacement(part.Partitioning.P, topo, systemSeed)
		tr.end(sp)
	}
	sp = tr.begin("storage.PlaceReplicas", "storage.s")
	reps := storage.PlaceReplicas(pl, topo, systemSeed)
	tr.end(sp)
	return &deployment{topo: topo, g: g, pg: pg, pl: pl, reps: reps}, nil
}

// deployService is the service workload's set-up: load the graph bytes and
// build the planner, which partitions and places the shared graph.
func deployService(in *inputs, sz size, tr *tracer) (*deployment, error) {
	topo := serviceTopology(sz)
	sp := tr.begin("graph.ReadFrom", "graph.load_s")
	g, err := graph.ReadFrom(bytes.NewReader(in.graph))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("jobsvc.NewPlanner", "jobsvc.planner_s")
	planner, err := jobsvc.NewPlanner(jobsvc.PlannerConfig{Graph: g, Topo: topo, Levels: sz.serviceLevels, Seed: systemSeed})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &deployment{topo: topo, g: g, planner: planner}, nil
}

// counts are the exact set-up counters of a PageRank deployment.
func (d *deployment) counts() []named {
	return []named{
		{"graph.edges", float64(d.g.NumEdges())},
		{"partition.cut_edges", float64(d.pg.TotalCrossEdges())},
		{"partition.inner_edge_ratio", partition.InnerEdgeRatio(d.g, d.pg.Part)},
		{"storage.bytes", float64(d.pg.Bytes())},
	}
}

func (d *deployment) runner(rec *trace.Recorder, tr *tracer) *engine.Runner {
	sp := tr.begin("engine.New", "engine.s")
	defer tr.end(sp)
	return engine.New(engine.Config{Topo: d.topo, Trace: rec, Replicas: d.reps, PartBytes: d.pg.PartBytes()})
}

// checkRanks compares a rank vector with the reference.
func checkRanks(res *result, got, want []float64) {
	if len(got) != len(want) {
		res.fail(1, "rank vector has %d entries, want %d", len(got), len(want))
		return
	}
	for v := range want {
		if d := math.Abs(got[v] - want[v]); !(d <= rankTolerance) {
			res.fail(1, "rank of vertex %d is %g, reference %g", v, got[v], want[v])
			return
		}
	}
}

// nrProgram is PageRank as a propagation program, identical to the apps
// package's NR: transfer sends rank·d/outdegree along each edge, combine
// sums what arrived and adds the random-jump term.
type nrProgram struct {
	g *graph.Graph
	n float64
}

func (p *nrProgram) Init(graph.VertexID) float64 { return 1 / p.n }

func (p *nrProgram) Transfer(src graph.VertexID, rank float64, dst graph.VertexID, emit propagation.Emit[float64]) {
	emit(dst, rank*apps.Damping/float64(p.g.OutDegree(src)))
}

func (p *nrProgram) Combine(_ graph.VertexID, _ float64, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum + (1-apps.Damping)/p.n
}

func (p *nrProgram) Bytes(float64) int64 { return 8 }

func (p *nrProgram) Associative() bool { return true }

func (p *nrProgram) Merge(_ graph.VertexID, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum
}

// socialPageRankProp runs PageRank at O4 (sketch placement, local
// propagation and local combination): planned with
// propagation.PlanIterations, each iteration's job run by the engine.
func socialPageRankProp(d *deployment, in *inputs, sz size, tr *tracer) (*result, error) {
	res := &result{attempted: in.ops}
	c := startPhase(tr, phaseRun)
	rec := trace.NewRecorder()
	r := d.runner(rec, tr)
	sp := tr.begin("propagation.PlanIterations", "propagation.s")
	prog := &nrProgram{g: d.g, n: float64(d.g.NumVertices())}
	opt := propagation.Options{LocalPropagation: true, LocalCombination: true}
	jobs, st, err := propagation.PlanIterations(r.Pool(), d.pg, d.pl, prog, propagation.NewState(d.pg, prog), opt, sz.iterations, "nr")
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var total engine.Metrics
	for _, job := range jobs {
		sp = tr.begin("engine.Runner.Run", "engine.s")
		m, err := r.Run(job)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		total.Add(m)
	}
	res.run = c.stop()
	checkRanks(res, st.Values, in.wantRanks)

	obs, err := observe(tr, rec.Events(), d.topo, res)
	if err != nil {
		return nil, err
	}
	res.virtual = engineVirtual(total, obs.jobLatencies)
	res.counts = append(d.counts(),
		named{"propagation.jobs", float64(len(jobs))},
		named{"engine.tasks", float64(total.TasksRun)})
	res.counts = append(res.counts, obs.counts...)
	return res, nil
}

// rmatPageRankMR runs the same PageRank through the MapReduce primitive on
// a random placement.
func rmatPageRankMR(d *deployment, in *inputs, sz size, tr *tracer) (*result, error) {
	res := &result{attempted: in.ops}
	c := startPhase(tr, phaseRun)
	rec := trace.NewRecorder()
	r := d.runner(rec, tr)
	sp := tr.begin("apps.NR.RunMapReduce", "mapreduce.s")
	out, total, err := apps.NewNR(sz.iterations).RunMapReduce(r, d.pg, d.pl)
	tr.end(sp)
	res.run = c.stop()
	if err != nil {
		return nil, err
	}
	ranks, _ := out.([]float64)
	checkRanks(res, ranks, in.wantRanks)

	obs, err := observe(tr, rec.Events(), d.topo, res)
	if err != nil {
		return nil, err
	}
	res.virtual = engineVirtual(total, obs.jobLatencies)
	res.counts = append(d.counts(),
		named{"engine.tasks", float64(total.TasksRun)},
		named{"mapreduce.tasks", float64(total.TasksRun)})
	res.counts = append(res.counts, obs.counts...)
	return res, nil
}

// engineVirtual are the end-to-end simulated metrics of an engine run; the
// job latencies are those of its per-iteration jobs.
func engineVirtual(m engine.Metrics, latencies []float64) []named {
	return []named{
		{"virtual_response_s", m.ResponseSeconds},
		{"virtual_machine_s", m.MachineSeconds},
		{"virtual_network_bytes", float64(m.NetworkBytes)},
		{"virtual_disk_bytes", float64(m.DiskBytes)},
		{"virtual_job_p50_s", nearestRank(latencies, 0.50)},
		{"virtual_job_p90_s", nearestRank(latencies, 0.90)},
	}
}

// serviceRetry is the default retry policy (1 s timeout, 0.25 s first
// backoff) scaled down a hundredfold to the service workload's sub-second
// makespan, so a dropped transfer delays its job rather than the whole run.
var serviceRetry = fault.RetryPolicy{Timeout: 0.01, Backoff: 0.0025}

// multitenantObserved decodes the jobs and fault files, plans the jobs and
// replays them through the multi-tenant service under the fair policy,
// capturing its event stream.
func multitenantObserved(d *deployment, in *inputs, sz size, tr *tracer) (*result, error) {
	res := &result{attempted: in.ops}
	c := startPhase(tr, phaseRun)
	sp := tr.begin("jobsvc.ReadWorkload", "jobsvc.decode_s")
	wl, err := jobsvc.ReadWorkload(bytes.NewReader(in.jobs))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("fault.File.Schedule", "fault.decode_s")
	faults, err := decodeFaults(in.faults, d.topo)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("jobsvc.Planner.Jobs", "jobsvc.plan_s")
	jobs, err := d.planner.Jobs(wl)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	sp = tr.begin("jobsvc.Run", "jobsvc.run_s")
	cfg := jobsvc.Config{Topo: d.topo, Policy: jobsvc.Fair, Concurrency: 2, Trace: rec, Faults: faults, Retry: serviceRetry}
	recs, err := jobsvc.Run(cfg, jobs)
	tr.end(sp)
	res.run = c.stop()
	if err != nil {
		return nil, err
	}

	var (
		latencies             []float64
		last, machine         float64
		network, disk         int64
		finished, preemptions int
		drops, retries, tasks int
	)
	first := math.Inf(1)
	for _, r := range recs {
		if r.Rejected || r.Finished <= 0 {
			res.fail(1, "job %s did not finish", r.ID)
			continue
		}
		finished++
		latencies = append(latencies, r.Latency())
		first, last = min(first, r.Submitted), max(last, r.Finished)
		machine += r.MachineSeconds
		network += r.NetworkBytes
		disk += r.DiskBytes
		preemptions += r.Preemptions
		drops += r.TransferDrops
		retries += r.TransferRetries
		tasks += r.TasksRun
	}
	if len(recs) != in.ops {
		res.fail(in.ops, "service returned %d records for %d jobs", len(recs), in.ops)
	}

	obs, err := observe(tr, rec.Events(), d.topo, res)
	if err != nil {
		return nil, err
	}
	res.virtual = []named{
		{"virtual_response_s", last - first},
		{"virtual_machine_s", machine},
		{"virtual_network_bytes", float64(network)},
		{"virtual_disk_bytes", float64(disk)},
		{"virtual_job_p50_s", nearestRank(latencies, 0.50)},
		{"virtual_job_p90_s", nearestRank(latencies, 0.90)},
	}
	res.counts = append([]named{
		{"graph.edges", float64(d.g.NumEdges())},
		{"jobsvc.jobs_finished", float64(finished)},
		{"jobsvc.preemptions", float64(preemptions)},
		{"jobsvc.transfer_drops", float64(drops)},
		{"jobsvc.transfer_retries", float64(retries)},
		{"jobsvc.tasks", float64(tasks)},
	}, obs.counts...)
	return res, nil
}

// decodeFaults reads a fault-schedule file and checks it against the
// topology. The service handles transient faults only.
func decodeFaults(data []byte, topo *cluster.Topology) (*fault.Schedule, error) {
	var f fault.File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing fault schedule: %w", err)
	}
	if err := f.Validate(topo.NumMachines()); err != nil {
		return nil, err
	}
	if len(f.Kills) > 0 {
		return nil, fmt.Errorf("fault schedule has %d kills; the service handles transient faults only", len(f.Kills))
	}
	return f.Schedule(), nil
}

// observation is what the observe phase produced.
type observation struct {
	counts       []named
	jobLatencies []float64 // begin→end of each engine job in the stream
}

// observe is the surfer-run -events → surfer-analyze / surfer-metrics flow:
// it writes the captured stream, reads it back, folds it into windowed
// series and analyzes its critical path, timing the observe phase. Then,
// untimed, it checks that the stream round-tripped exactly and that blame
// sums to the makespan; a failed check fails every operation of res.
func observe(tr *tracer, events []trace.Event, topo *cluster.Topology, res *result) (*observation, error) {
	c := startPhase(tr, phaseObserve)
	sp := tr.begin("trace.WriteEvents", "trace.write_s")
	var buf bytes.Buffer
	ti := &trace.TopoInfo{Name: topo.Name(), Machines: topo.NumMachines(), Bandwidth: topo.BandwidthMatrix()}
	err := trace.WriteEvents(&buf, ti, events)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	size := buf.Len()
	sp = tr.begin("trace.ReadEvents", "trace.read_s")
	s, err := trace.ReadEvents(&buf)
	if err == nil && s.Topo == nil {
		err = fmt.Errorf("read-back stream has no topology header")
	}
	var back *cluster.Topology
	if err == nil {
		back = cluster.NewTopologyFromMatrix(s.Topo.Name, s.Topo.Bandwidth)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// Window the series like surfer-metrics does by default: 32 windows
	// over the stream clock.
	sp = tr.begin("metrics.FromEvents", "metrics.fold_s")
	clockEnd := 0.0
	for i := range s.Events {
		clockEnd = max(clockEnd, s.Events[i].Time)
	}
	set, _, err := metrics.FromEvents(s.Events, metrics.Config{Window: clockEnd / 32, Topo: back})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("analyze.Analyze", "analyze.s")
	rep, err := analyze.Analyze(s.Events, back)
	tr.end(sp)
	res.observe = c.stop()
	if err != nil {
		return nil, err
	}

	if len(s.Events) != len(events) {
		res.fail(res.attempted, "stream read back %d events, wrote %d", len(s.Events), len(events))
	} else {
		for i := range events {
			if s.Events[i] != events[i] {
				res.fail(res.attempted, "event %d changed in the round trip", i)
				break
			}
		}
	}
	blame := 0.0
	for _, cat := range analyze.Categories {
		blame += rep.Blame[cat]
	}
	if rep.Makespan <= 0 || math.Abs(blame-rep.Makespan) > 1e-9*max(1, rep.Makespan) {
		res.fail(res.attempted, "blame sums to %g, makespan is %g", blame, rep.Makespan)
	}
	return &observation{
		counts: []named{
			{"trace.events", float64(len(events))},
			{"trace.bytes", float64(size)},
			{"metrics.series", float64(len(set.Series))},
			{"metrics.windows", float64(set.Windows)},
			{"analyze.path_steps", float64(len(rep.Path))},
		},
		jobLatencies: jobLatencies(events),
	}, nil
}

// jobLatencies pairs each job-begin event with the next job-end of the same
// job and returns the virtual begin→end durations in stream order.
func jobLatencies(events []trace.Event) []float64 {
	var out []float64
	begun := make(map[string][]float64)
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case trace.KindJobBegin:
			begun[ev.Job] = append(begun[ev.Job], ev.Time)
		case trace.KindJobEnd:
			if q := begun[ev.Job]; len(q) > 0 {
				out = append(out, ev.Time-q[0])
				begun[ev.Job] = q[1:]
			}
		}
	}
	return out
}
