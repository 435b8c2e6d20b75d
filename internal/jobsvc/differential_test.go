package jobsvc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
)

// serviceView normalizes a one-job service stream to what engine.Runner.Run
// emits for the same plans: the scheduler's job-queued/job-admitted events
// are dropped, Seq and Cause are renumbered over the survivors (a cause that
// pointed at a dropped event becomes a root), and the "<id>/" job prefix and
// the Tenant stamp are stripped.
func serviceView(events []trace.Event, id string) []trace.Event {
	renum := make(map[int]int, len(events))
	var out []trace.Event
	for _, ev := range events {
		if ev.Kind == trace.KindJobQueued || ev.Kind == trace.KindJobAdmitted {
			continue
		}
		renum[ev.Seq] = len(out)
		ev.Seq = len(out)
		if c, ok := renum[ev.Cause]; ok {
			ev.Cause = c
		} else {
			ev.Cause = trace.None
		}
		ev.Job = strings.TrimPrefix(ev.Job, id+"/")
		ev.Tenant = ""
		out = append(out, ev)
	}
	return out
}

// TestDifferentialServiceMatchesEngine pins the one-core contract: one job
// submitted alone through the service (FIFO, concurrency 1, submitted at
// t=0) produces exactly the event stream of engine.Runner.Run over the same
// plans, fault-free and under a seeded transient schedule, at every worker
// count.
func TestDifferentialServiceMatchesEngine(t *testing.T) {
	plans := SyntheticPlan(5, 8, 3, 3, 6)
	retry := fault.RetryPolicy{Timeout: 0.001, Backoff: 0.00025}
	for _, withFaults := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("faults=%v/workers=%d", withFaults, workers), func(t *testing.T) {
				var sched *fault.Schedule
				if withFaults {
					var kills []fault.Kill
					sched, kills = fault.Generate(fault.GenConfig{Machines: 8, Horizon: 0.06,
						Degrades: 3, Drops: 4, Slowdowns: 2, Seed: 14})
					if len(kills) != 0 {
						t.Fatal("unexpected kills")
					}
				}
				svc := trace.NewRecorder()
				job := Job{Spec: JobSpec{ID: "solo", Tenant: "t0", Submit: 0}, Plan: plans}
				if _, err := Run(Config{Topo: testTopo(), Policy: FIFO, Concurrency: 1,
					Trace: svc, Faults: sched, Retry: retry}, []Job{job}); err != nil {
					t.Fatal(err)
				}
				eng := trace.NewRecorder()
				r := engine.New(engine.Config{Topo: testTopo(), Workers: workers,
					Trace: eng, Faults: sched, Retry: retry})
				for _, pj := range plans {
					if _, err := r.Run(pj); err != nil {
						t.Fatal(err)
					}
				}
				got, want := serviceView(svc.Events(), "solo"), eng.Events()
				if len(got) != len(want) {
					t.Fatalf("service emitted %d events, engine %d", len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("event %d differs:\nservice %+v\nengine  %+v", i, got[i], want[i])
					}
				}
				if withFaults && r.Metrics().TransferDrops == 0 {
					t.Fatal("fault schedule dropped nothing: the retry path went untested")
				}
			})
		}
	}
}
