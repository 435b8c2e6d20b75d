package jobsvc

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/trace"
)

// testTopo is the shared 8-machine heterogeneous cluster of these tests.
func testTopo() *cluster.Topology { return cluster.NewT3(8, 7) }

// synthJobs builds a small synthetic workload: n jobs over the tenants,
// staggered arrivals, priorities cycling 0..2.
func synthJobs(n int, tenants int, seed int64) []Job {
	plans := SyntheticPlan(seed, 8, n, 2, 4)
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		jobs[i] = Job{
			Spec: JobSpec{
				ID:       fmt.Sprintf("job-%02d", i),
				Tenant:   fmt.Sprintf("tenant-%d", i%tenants),
				Priority: i % 3,
				Submit:   0.001 * float64(i),
			},
			Plan: plans[i : i+1],
		}
	}
	return jobs
}

func TestSingleJobRuns(t *testing.T) {
	jobs := synthJobs(1, 1, 1)
	recs, err := Run(Config{Topo: testTopo(), Policy: FIFO}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Rejected {
		t.Fatal("sole job rejected")
	}
	if r.Admitted != r.Submitted {
		t.Errorf("sole job waited: submitted %g, admitted %g", r.Submitted, r.Admitted)
	}
	if r.Latency() <= 0 {
		t.Errorf("latency %g, want > 0", r.Latency())
	}
	if r.TasksRun != 8 || r.MachineSeconds <= 0 {
		t.Errorf("accounting: tasks %d (want 8), machine-seconds %g", r.TasksRun, r.MachineSeconds)
	}
}

// realWorkload plans a real propagation workload over a shared deployment
// at the given worker count.
func realWorkload(t *testing.T, workers int) []Job {
	t.Helper()
	g := graph.Social(graph.DefaultSocial(1024, 7))
	p, err := NewPlanner(PlannerConfig{Graph: g, Topo: testTopo(), Levels: 3, Seed: 7, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	wl := GenerateWorkload(GenConfig{Jobs: 8, Tenants: 3, MaxPriority: 2, MaxIterations: 2, Seed: 11})
	jobs, err := p.Jobs(wl)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func testFaults(t *testing.T) *fault.Schedule {
	t.Helper()
	sched, kills := fault.Generate(fault.GenConfig{Machines: 8, Horizon: 0.01, Degrades: 2, Drops: 2, Slowdowns: 1, Seed: 3})
	if len(kills) != 0 {
		t.Fatal("unexpected kills")
	}
	return sched
}

// TestDeterminismAcrossWorkers is the acceptance criterion: for every
// policy, with and without a fault schedule, the same workload produces
// byte-identical trace streams and identical per-job records across
// planning worker counts 1, 4 and 8.
func TestDeterminismAcrossWorkers(t *testing.T) {
	for _, pol := range Policies {
		for _, withFaults := range []bool{false, true} {
			name := fmt.Sprintf("%s/faults=%v", pol, withFaults)
			t.Run(name, func(t *testing.T) {
				var refStream []byte
				var refRecs []Record
				for _, workers := range []int{1, 4, 8} {
					jobs := realWorkload(t, workers)
					cfg := Config{Topo: testTopo(), Policy: pol, Concurrency: 2, Trace: trace.NewRecorder()}
					if withFaults {
						cfg.Faults = testFaults(t)
					}
					recs, err := Run(cfg, jobs)
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := trace.WriteEvents(&buf, nil, cfg.Trace.Events()); err != nil {
						t.Fatal(err)
					}
					if refStream == nil {
						refStream, refRecs = buf.Bytes(), recs
						continue
					}
					if !bytes.Equal(refStream, buf.Bytes()) {
						t.Fatalf("workers=%d: trace stream differs from workers=1", workers)
					}
					for i := range recs {
						if recs[i] != refRecs[i] {
							t.Fatalf("workers=%d: record %d differs: %+v vs %+v", workers, i, recs[i], refRecs[i])
						}
					}
				}
			})
		}
	}
}

// TestAdmissionControl pins deterministic rejection: a burst over the queue
// limit rejects exactly the over-budget arrivals, identically every run.
func TestAdmissionControl(t *testing.T) {
	jobs := synthJobs(6, 2, 5)
	for i := range jobs {
		jobs[i].Spec.Submit = 0 // burst: everyone at t=0
	}
	var refRejected []string
	for run := 0; run < 2; run++ {
		rec := trace.NewRecorder()
		recs, err := Run(Config{Topo: testTopo(), Policy: FIFO, Concurrency: 1, QueueLimit: 2, Trace: rec}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var rejected []string
		for _, r := range recs {
			if r.Rejected {
				rejected = append(rejected, r.ID)
			}
		}
		// Concurrency 1, queue limit 2: job-00 admitted immediately,
		// job-01 and job-02 queue, every later arrival bounces.
		want := []string{"job-03", "job-04", "job-05"}
		if fmt.Sprint(rejected) != fmt.Sprint(want) {
			t.Fatalf("run %d: rejected %v, want %v", run, rejected, want)
		}
		if refRejected == nil {
			refRejected = rejected
		}
		var rejEvents int
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KindJobRejected {
				rejEvents++
			}
		}
		if rejEvents != len(want) {
			t.Fatalf("run %d: %d job-rejected events, want %d", run, rejEvents, len(want))
		}
	}
}

// TestBlameSumsToMakespanMultiTenant pins the analyzer invariant on a
// multi-tenant stream: blame — including the queued-preempted category —
// sums exactly to makespan, and queueing actually lands on the path.
func TestBlameSumsToMakespanMultiTenant(t *testing.T) {
	for _, pol := range Policies {
		t.Run(pol.String(), func(t *testing.T) {
			jobs := realWorkload(t, 4)
			rec := trace.NewRecorder()
			cfg := Config{Topo: testTopo(), Policy: pol, Concurrency: 1, Trace: rec, Faults: testFaults(t)}
			if _, err := Run(cfg, jobs); err != nil {
				t.Fatal(err)
			}
			rep, err := analyze.Analyze(rec.Events(), testTopo())
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, c := range analyze.Categories {
				sum += rep.Blame[c]
			}
			if diff := math.Abs(sum - rep.Makespan); diff > 1e-9*math.Max(1, rep.Makespan) {
				t.Fatalf("blame sums to %g, makespan %g (diff %g)", sum, rep.Makespan, diff)
			}
			// Concurrency 1 over 8 concurrent jobs: queueing must dominate
			// someone's path.
			if rep.Blame[analyze.CatQueued] <= 0 {
				t.Fatalf("queued-preempted blame is %g, want > 0 (blame %v)", rep.Blame[analyze.CatQueued], rep.Blame)
			}
		})
	}
}

// TestPlanPurity pins the planning-vs-execution split: the same spec
// planned at different worker counts yields byte-identical plans (asserted
// indirectly by TestDeterminismAcrossWorkers) and re-running the same jobs
// under a different policy leaves the plans untouched.
func TestPlanPurity(t *testing.T) {
	jobs := realWorkload(t, 2)
	before := fmt.Sprintf("%+v", jobs[0].Plan[0].Stages[0].Tasks[0])
	if _, err := Run(Config{Topo: testTopo(), Policy: Fair, Concurrency: 1}, jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Topo: testTopo(), Policy: Priority, Concurrency: 3}, jobs); err != nil {
		t.Fatal(err)
	}
	after := fmt.Sprintf("%+v", jobs[0].Plan[0].Stages[0].Tasks[0])
	if before != after {
		t.Fatalf("plan mutated by execution:\nbefore %s\nafter  %s", before, after)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Fatal("ParsePolicy accepted junk")
	}
}

func TestWorkloadRoundTrip(t *testing.T) {
	wl := GenerateWorkload(GenConfig{Jobs: 5, Tenants: 2, MaxPriority: 2, Seed: 9})
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, wl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkload(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got.Jobs) != fmt.Sprintf("%+v", wl.Jobs) {
		t.Fatal("workload round trip changed the jobs")
	}
	var buf2 bytes.Buffer
	if err := WriteWorkload(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("workload files are not byte-identical")
	}
	if _, err := ReadWorkload(bytes.NewReader([]byte(`{"format":"nope","version":1}`))); err == nil {
		t.Fatal("ReadWorkload accepted a wrong format marker")
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("even allocation: %g, want 1", j)
	}
	if j := JainIndex([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("monopoly over 4: %g, want 0.25", j)
	}
	if j := JainIndex(nil); j != 0 {
		t.Fatalf("empty allocation: %g, want 0", j)
	}
}

// pinnedJob builds a one-stage job with one unit-compute task pinned to
// each listed machine.
func pinnedJob(id string, machines ...cluster.MachineID) Job {
	tasks := make([]*engine.Task, len(machines))
	for i, m := range machines {
		tasks[i] = &engine.Task{Name: fmt.Sprintf("t%d", i), Part: partition.PartID(i),
			Machine: m, Compute: 1}
	}
	return Job{
		Spec: JobSpec{ID: id, Tenant: "t", Submit: 0},
		Plan: []*engine.Job{{Name: id, Stages: []*engine.Stage{{Name: "s", Tasks: tasks}}}},
	}
}

// taskMachines returns the set of machines TaskStart events ran on.
func taskMachines(evs []trace.Event) map[cluster.MachineID]int {
	out := map[cluster.MachineID]int{}
	for _, ev := range evs {
		if ev.Kind == trace.KindTaskStart {
			out[cluster.MachineID(ev.Machine)]++
		}
	}
	return out
}

// TestDrainReroutesPinnedTasks: a job placed after machine 1 drained and
// before machine 3 joined reroutes the tasks pinned to either, through the
// engine's placement: with no replicas, to the first available machine.
func TestDrainReroutesPinnedTasks(t *testing.T) {
	topo := cluster.NewT1(4)
	// Machine 1 drains at t=0; machine 3 does not join until t=100. The job
	// arrives at t=1, once the drain has taken effect. Tasks pinned to
	// either machine must land elsewhere.
	sched := &fault.Schedule{
		Joins:  []fault.MachineJoin{{Machine: 3, At: 100}},
		Drains: []fault.MachineDrain{{Machine: 1, At: 0, Deadline: 100}},
	}
	job := pinnedJob("j", 0, 1, 2, 3)
	job.Spec.Submit = 1
	rec := trace.NewRecorder()
	recs, err := Run(Config{Topo: topo, Policy: FIFO, Trace: rec, Faults: sched}, []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].TasksRun != 4 {
		t.Fatalf("tasks run = %d, want 4", recs[0].TasksRun)
	}
	got := taskMachines(rec.Events())
	if got[1] != 0 || got[3] != 0 {
		t.Fatalf("tasks ran on a draining/dormant machine: %v", got)
	}
	if got[0]+got[2] != 4 {
		t.Fatalf("rerouted tasks lost: %v", got)
	}
	// First-available rule: both displaced tasks land on machine 0.
	if got[0] != 3 || got[2] != 1 {
		t.Fatalf("reroute did not pick the first available machine: %v", got)
	}
}

// TestRerouteKeepsPinWhenNothingAccepts: every machine drains at the
// instant the job arrives. A drain takes effect when its event pops, after
// the same-instant arrival has placed the job, so tasks keep their pins
// (and finish on the draining machines) instead of deadlocking.
func TestRerouteKeepsPinWhenNothingAccepts(t *testing.T) {
	topo := cluster.NewT1(2)
	sched := &fault.Schedule{Drains: []fault.MachineDrain{
		{Machine: 0, At: 0, Deadline: 100}, {Machine: 1, At: 0, Deadline: 100},
	}}
	rec := trace.NewRecorder()
	recs, err := Run(Config{Topo: topo, Policy: FIFO, Trace: rec, Faults: sched},
		[]Job{pinnedJob("j", 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].TasksRun != 2 {
		t.Fatalf("tasks run = %d, want 2", recs[0].TasksRun)
	}
	got := taskMachines(rec.Events())
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("pins not kept: %v", got)
	}
}

// TestSummarizeFilesInterleavedJobs: on a service capture, where concurrent
// jobs interleave their events, the breakdown files every task and transfer
// under its own job and stage — none lands in an "(untracked)" row, and each
// job's task count matches its task-end events.
func TestSummarizeFilesInterleavedJobs(t *testing.T) {
	rec := trace.NewRecorder()
	if _, err := Run(Config{Topo: testTopo(), Policy: Fair, Concurrency: 2, Trace: rec}, realWorkload(t, 1)); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindTaskEnd {
			want[ev.Job]++
		}
	}
	got := make(map[string]int)
	for _, jb := range trace.Summarize(rec.Events()).Jobs {
		for _, sb := range jb.Stages {
			for _, mb := range sb.Machines {
				if jb.Name == "(untracked)" || sb.Name == "(untracked)" {
					t.Errorf("job %s stage %s: machine %d work filed untracked (tasks=%d transfers=%d)",
						jb.Name, sb.Name, mb.Machine, mb.TasksRun, mb.Transfers)
				}
				got[jb.Name] += mb.TasksRun
			}
		}
	}
	if len(want) < 2 {
		t.Fatalf("capture holds %d jobs", len(want))
	}
	for job, n := range want {
		if got[job] != n {
			t.Errorf("job %s: breakdown counts %d tasks, stream has %d task-ends", job, got[job], n)
		}
	}
}
