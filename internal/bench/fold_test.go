package bench

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
)

// foldMetrics recomputes a run's engine.Metrics counters from its event
// stream alone.
func foldMetrics(events []trace.Event) engine.Metrics {
	var m engine.Metrics
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindTaskEnd:
			m.TasksRun++
			m.MachineSeconds += ev.End - ev.Start
			m.DiskBytes += ev.DiskRead + ev.DiskWrite
		case trace.KindTransfer:
			m.NetworkBytes += ev.Bytes
		case trace.KindPartitionMigrate:
			m.NetworkBytes += ev.Bytes
			m.Migrations++
			m.MigrationBytes += ev.Bytes
		case trace.KindRetry:
			m.Recoveries++
		case trace.KindTransferDrop:
			m.TransferDrops++
		case trace.KindTransferRetry:
			m.TransferRetries++
		case trace.KindSpeculate:
			m.Speculations++
		case trace.KindCheckpoint:
			m.Checkpoints++
		case trace.KindRestore:
			m.Restores++
		case trace.KindMachineJoin:
			m.Joins++
		case trace.KindMachineDrain:
			m.Drains++
		}
	}
	return m
}

// TestMetricsEqualStreamFold: for every application under both primitives,
// fault-free, under a seeded transient-fault schedule with speculation,
// with a machine killed and failed over to replicas, and with a join and a
// drain, the Metrics a run returns equal the fold of the events it
// emitted — the counters exactly, MachineSeconds to float rounding.
func TestMetricsEqualStreamFold(t *testing.T) {
	d, err := NewDeployment(Scale{Vertices: 1024, Levels: 3, Machines: 8, Seed: 7}, cluster.NewT1(8))
	if err != nil {
		t.Fatal(err)
	}
	primitives := []struct {
		name string
		run  func(apps.App) (engine.Metrics, error)
	}{
		{"propagation", func(a apps.App) (engine.Metrics, error) { return d.RunApp(a, O4) }},
		{"mapreduce", d.RunAppMR},
	}
	// Schedules are laid over the fault-free response time of each run.
	schedules := []struct {
		name  string
		apply func(s *Scale, horizon float64)
	}{
		{"transient", func(s *Scale, horizon float64) {
			s.Faults, _ = fault.Generate(fault.GenConfig{
				Machines: 8, Horizon: horizon, Degrades: 2, Drops: 3, Slowdowns: 2, Seed: 3,
			})
			s.Speculation = fault.SpeculationPolicy{Enabled: true}
		}},
		{"failure", func(s *Scale, horizon float64) {
			s.Failures = []engine.Failure{{Machine: 3, At: 0.3 * horizon}}
			s.Heartbeat = horizon / 20
		}},
		{"join-drain", func(s *Scale, horizon float64) {
			s.Faults = &fault.Schedule{
				Joins:  []fault.MachineJoin{{Machine: 7, At: 0.2 * horizon, NICs: cluster.LinkBandwidth / 2}},
				Drains: []fault.MachineDrain{{Machine: 2, At: 0.3 * horizon, Deadline: 100 * horizon}},
			}
		}},
	}
	seen := make(map[string]engine.Metrics)
	check := func(name string, run func() (engine.Metrics, error)) engine.Metrics {
		t.Helper()
		rec := trace.NewRecorder()
		d.Scale.Trace = rec
		m, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := foldMetrics(rec.Events())
		if math.Abs(got.MachineSeconds-m.MachineSeconds) > 1e-9*m.MachineSeconds {
			t.Errorf("%s: MachineSeconds fold %g, metrics %g", name, got.MachineSeconds, m.MachineSeconds)
		}
		got.MachineSeconds, got.ResponseSeconds = m.MachineSeconds, m.ResponseSeconds
		if got != m {
			t.Errorf("%s: stream fold %+v\nmetrics %+v", name, got, m)
		}
		seen[name] = m
		return m
	}
	base := d.Scale
	for _, app := range apps.All() {
		for _, p := range primitives {
			d.Scale = base
			name := app.Name() + "/" + p.name
			horizon := check(name, func() (engine.Metrics, error) { return p.run(app) }).ResponseSeconds
			for _, sc := range schedules {
				d.Scale = base
				sc.apply(&d.Scale, horizon)
				check(name+"/"+sc.name, func() (engine.Metrics, error) { return p.run(app) })
			}
		}
	}
	// The schedules must bite somewhere, or the cross-check is vacuous.
	var total engine.Metrics
	for _, m := range seen {
		total.Add(m)
	}
	if total.TransferDrops == 0 || total.TransferRetries == 0 || total.Speculations == 0 ||
		total.Recoveries == 0 || total.Joins == 0 || total.Drains == 0 || total.Migrations == 0 {
		t.Errorf("schedules left a counter at zero across all runs: %+v", total)
	}
}
