package surfer

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/fault"
)

// TestDeploymentPathsAgree runs one drain and one kill scenario through the
// three ways of deploying a graph — the public Build+NewRunner, the bench
// harness, and the job scheduler — and requires identical metrics. A path
// that drops a runner setting (partition sizes for drain migrations, the
// heartbeat interval) shows up here as a metrics gap.
func TestDeploymentPathsAgree(t *testing.T) {
	cases := []struct {
		name string
		s    bench.Scale
		opt  bench.OptLevel
		app  apps.App
	}{
		{
			name: "drain",
			s: bench.Scale{Vertices: 4096, Levels: 3, Machines: 8, Seed: 42, Workers: 1,
				Faults: &fault.Schedule{Drains: []fault.MachineDrain{{Machine: 3, At: 0.0005, Deadline: 1}}}},
			opt: bench.O4,
			app: apps.NewNR(3),
		},
		{
			name: "kill",
			s: bench.Scale{Vertices: 2048, Levels: 3, Machines: 4, Seed: 3, Workers: 1,
				Failures: []Failure{{Machine: 2, At: 0.001}}, Heartbeat: 0.0005},
			opt: bench.O2,
			app: apps.NewNR(2),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.s.MakeGraph()
			topo := NewT1(c.s.Machines)
			d, err := bench.NewDeploymentFor(c.s, topo, g)
			if err != nil {
				t.Fatal(err)
			}
			viaBench, err := d.RunApp(c.app, c.opt)
			if err != nil {
				t.Fatal(err)
			}

			sys, err := Build(Config{
				Graph: g, Topology: topo, Levels: c.s.Levels, Seed: c.s.Seed,
				Workers: c.s.Workers, Failures: c.s.Failures,
				HeartbeatInterval: c.s.Heartbeat, Faults: c.s.Faults,
			})
			if err != nil {
				t.Fatal(err)
			}
			run := func(r *Runner) (Metrics, error) {
				_, m, err := c.app.RunPropagation(r, sys.PG, sys.Placement, d.Options(c.opt))
				return m, err
			}
			viaSystem, err := run(sys.NewRunner())
			if err != nil {
				t.Fatal(err)
			}

			sched := NewScheduler(sys, ScheduleFIFO)
			sched.Submit(JobRequest{Name: c.name, User: "u", Run: run})
			sched.RunAll()
			rec := sched.Records()[0]
			if rec.Err != nil {
				t.Fatal(rec.Err)
			}

			if viaSystem != viaBench {
				t.Errorf("Build+NewRunner %+v\nbench deployment  %+v", viaSystem, viaBench)
			}
			if rec.Metrics != viaBench {
				t.Errorf("scheduler         %+v\nbench deployment  %+v", rec.Metrics, viaBench)
			}
		})
	}
}
