// Package bench regenerates every table and figure of the paper's
// evaluation (§6, Appendix F) on the simulated cluster: Table 1
// (partitioning time by topology), Tables 2–3 (optimization levels O1–O4),
// Table 4 (user code size), Table 5 (partition quality), Figure 6
// (bandwidth-aware impact by topology), Figure 7 (MapReduce vs
// propagation), Figure 9 (cross-pod delay sweep), Figure 10 (fault
// tolerance), Figures 11–12 (scalability), and the §6.3 cascaded
// propagation study.
package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/trace"
)

// Scale sizes an experiment run. The defaults mirror the paper's setup
// shrunk to laptop scale: 32 machines, 64 partitions, a stitched
// small-world graph standing in for the MSN snapshot.
type Scale struct {
	// Vertices in the synthetic data graph.
	Vertices int
	// Levels is log2 of the partition count (paper default: 64
	// partitions).
	Levels int
	// Machines in the simulated cluster (paper: 32).
	Machines int
	// Seed drives generation and partitioning.
	Seed int64
	// Workers sizes the engine's compute worker pool (0 = GOMAXPROCS,
	// 1 = serial). Measured virtual-time results are identical for every
	// value; only wall-clock changes.
	Workers int
	// Trace, when non-nil, receives the structured event stream of every
	// run built from this scale. The stream is identical for every
	// Workers value.
	Trace *trace.Recorder
	// Failures schedules machine deaths for every runner built from this
	// scale (Figure 10); Heartbeat is the failure-detection latency
	// (0 = engine default, 1s).
	Failures  []engine.Failure
	Heartbeat float64
	// Faults injects transient faults (degraded or blackholed links,
	// machine slowdowns); Retry and Speculation tune the recovery policies.
	Faults      *fault.Schedule
	Retry       fault.RetryPolicy
	Speculation fault.SpeculationPolicy
}

// DefaultScale is the full benchmark scale.
func DefaultScale() Scale {
	return Scale{Vertices: 1 << 16, Levels: 6, Machines: 32, Seed: 42}
}

// TestScale is a shrunken configuration keeping test runtimes low.
func TestScale() Scale {
	return Scale{Vertices: 4096, Levels: 4, Machines: 8, Seed: 42}
}

// MakeGraph generates the data graph for a scale: the hybrid social graph
// (small-world communities + power-law hubs) standing in for the MSN
// snapshot.
func (s Scale) MakeGraph() *graph.Graph {
	return graph.Social(graph.DefaultSocial(s.Vertices, s.Seed))
}

// Topologies returns the named network settings of §6.1 at this scale.
func (s Scale) Topologies() []*cluster.Topology {
	return []*cluster.Topology{
		cluster.NewT1(s.Machines),
		cluster.NewT2(cluster.T2Config{Machines: s.Machines, Pods: 2, Levels: 1}),
		cluster.NewT2(cluster.T2Config{Machines: s.Machines, Pods: 4, Levels: 1}),
		cluster.NewT2(cluster.T2Config{Machines: s.Machines, Pods: 4, Levels: 2}),
		cluster.NewT3(s.Machines, s.Seed),
	}
}

// OptLevel is one of the paper's four optimization levels (§6.3).
type OptLevel int

const (
	O1 OptLevel = iota + 1 // ParMetis layout, no local optimizations
	O2                     // sketch layout, no local optimizations
	O3                     // ParMetis layout, local optimizations
	O4                     // sketch layout, local optimizations
)

func (o OptLevel) String() string { return fmt.Sprintf("O%d", int(o)) }

// BandwidthAwareLayout reports whether the level stores partitions by the
// machine-graph sketch.
func (o OptLevel) BandwidthAwareLayout() bool { return o == O2 || o == O4 }

// LocalOpts reports whether local propagation and combination are enabled.
func (o OptLevel) LocalOpts() bool { return o == O3 || o == O4 }

// Deployment is a core.System — partitioned by the shared bisection
// kernel, placed by the machine-graph sketch, replicated — plus the
// bandwidth-oblivious placement of the same partitions, so the four
// optimization levels run against identical partitions.
type Deployment struct {
	*core.System
	// PlacePM is the balanced random placement O1/O3 and MapReduce use.
	PlacePM *partition.Placement
}

// NewDeployment partitions the scale's graph once and derives both
// placements for the given topology.
func NewDeployment(s Scale, topo *cluster.Topology) (*Deployment, error) {
	g := s.MakeGraph()
	return NewDeploymentFor(s, topo, g)
}

// NewDeploymentFor is NewDeployment with a caller-provided graph (so sweeps
// can reuse one partitioning across topologies).
func NewDeploymentFor(s Scale, topo *cluster.Topology, g *graph.Graph) (*Deployment, error) {
	sys, err := core.Build(core.Config{
		Graph: g, Topology: topo, Levels: s.Levels, Seed: s.Seed,
		Workers: s.Workers, Trace: s.Trace,
		Failures: s.Failures, HeartbeatInterval: s.Heartbeat,
		Faults: s.Faults, Retry: s.Retry, Speculation: s.Speculation,
	})
	if err != nil {
		return nil, err
	}
	return &Deployment{System: sys, PlacePM: partition.RandomPlacement(sys.PG.Part.P, topo, s.Seed)}, nil
}

// Options returns the propagation options an optimization level uses.
func (d *Deployment) Options(o OptLevel) propagation.Options {
	return propagation.Options{
		LocalPropagation: o.LocalOpts(),
		LocalCombination: o.LocalOpts(),
	}
}

// RunApp executes one application at one optimization level on a fresh
// runner: the sketch placement for O2/O4, the random one for O1/O3.
func (d *Deployment) RunApp(app apps.App, o OptLevel) (engine.Metrics, error) {
	pl := d.PlacePM
	if o.BandwidthAwareLayout() {
		pl = d.Placement
	}
	_, m, err := app.RunPropagation(d.NewRunner(), d.PG, pl, d.Options(o))
	return m, err
}

// RunAppMR executes one application's MapReduce implementation (always on
// the bandwidth-oblivious placement: MapReduce is layout-unaware).
func (d *Deployment) RunAppMR(app apps.App) (engine.Metrics, error) {
	_, m, err := app.RunMapReduce(d.NewRunner(), d.PG, d.PlacePM)
	return m, err
}
