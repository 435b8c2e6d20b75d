package jobsvc

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Drift tests: model features that once existed only on the engine path
// must hold for service jobs too, now that both run on one event loop.

// TestDriftJoinedNICCap: a service job's transfer into a machine that
// joined with a NIC line-rate cap is paced by the cap, bytes/cap seconds.
func TestDriftJoinedNICCap(t *testing.T) {
	const bytes = 1 << 20
	nic := cluster.LinkBandwidth / 4
	job := Job{
		Spec: JobSpec{ID: "j", Tenant: "t", Submit: 0},
		Plan: []*engine.Job{{Name: "nic", Stages: []*engine.Stage{
			{Name: "send", Tasks: []*engine.Task{{Name: "src", Part: engine.NoPart, Machine: 0, Compute: 0.001,
				Outputs: []engine.Output{{DstTask: 0, Bytes: bytes}}}}},
			{Name: "recv", Tasks: []*engine.Task{{Name: "dst", Part: engine.NoPart, Machine: 3, Compute: 0.001}}},
		}}},
	}
	sched := &fault.Schedule{Joins: []fault.MachineJoin{{Machine: 3, At: 0, NICs: nic}}}
	rec := trace.NewRecorder()
	if _, err := Run(Config{Topo: cluster.NewT1(4), Policy: FIFO, Trace: rec, Faults: sched}, []Job{job}); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindTransfer {
			continue
		}
		found = true
		if ev.Dst != 3 {
			t.Fatalf("transfer went to machine %d, want the joined machine 3", ev.Dst)
		}
		if got, want := ev.End-ev.Start, bytes/nic; math.Abs(got-want) > 1e-12 {
			t.Fatalf("transfer took %g s, want bytes/cap = %g s", got, want)
		}
	}
	if !found {
		t.Fatal("no transfer in the run")
	}
}

// TestDriftDrainTransferTargets: under drains, no service transfer attempt
// is issued to a machine that is draining or retired at that moment — data
// follows its receiving task to wherever the engine places it, and a retry
// after a drop re-resolves that place. (An attempt issued to an accepting
// machine may still wait for the NICs past a later drain: a drain takes
// effect when it pops, not ahead of decisions made before it.) Drop windows
// into machine 2 around its drain make retries cross it.
func TestDriftDrainTransferTargets(t *testing.T) {
	sched := &fault.Schedule{Drains: []fault.MachineDrain{
		{Machine: 2, At: 0.002, Deadline: 1},
		{Machine: 5, At: 0.005, Deadline: 1},
	}}
	for src := cluster.MachineID(0); src < 8; src++ {
		if src != 2 {
			sched.Links = append(sched.Links, fault.LinkFault{Src: src, Dst: 2, From: 0.0015, Until: 0.0025, Drop: true})
		}
	}
	crossed := 0 // retries of drops into machine 2 that fire after its drain
	for seed := int64(1); seed <= 8; seed++ {
		rec := trace.NewRecorder()
		recs, err := Run(Config{Topo: testTopo(), Policy: Fair, Concurrency: 2, Trace: rec, Faults: sched,
			Retry: fault.RetryPolicy{Timeout: 0.001, Backoff: 0.0003}}, synthJobs(8, 3, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Finished <= 0 {
				t.Fatalf("seed %d: job %s did not finish", seed, r.ID)
			}
		}
		late := 0
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KindTransferRetry && ev.Dst == 2 && ev.Time >= 0.002 {
				crossed++
			}
			if ev.Kind != trace.KindTransfer {
				continue
			}
			for _, d := range sched.Drains {
				if ev.Time < d.At {
					continue
				}
				late++
				if int(d.Machine) == ev.Dst {
					t.Fatalf("seed %d: transfer %d→%d issued at %g, after machine %d drained at %g",
						seed, ev.Machine, ev.Dst, ev.Time, d.Machine, d.At)
				}
			}
		}
		if late == 0 {
			t.Fatalf("seed %d: no transfer issued after a drain: the drains go unexercised", seed)
		}
	}
	if crossed == 0 {
		t.Fatal("no retry crossed machine 2's drain: the re-resolution goes unexercised")
	}
}
