// Package core assembles the Surfer system (§3, Figure 1): given a data
// graph and a cluster topology, it partitions the graph (bandwidth-aware or
// baseline), derives the storage placement with three-way replication, and
// exposes runners that execute propagation and MapReduce jobs with full
// metrics. It is the engine room behind the public surfer package.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
	"repro/internal/trace"
)

// PartitionStrategy selects how the graph is partitioned and placed.
type PartitionStrategy int

const (
	// StrategyBandwidthAware runs Algorithm 4: lockstep machine-graph and
	// data-graph bisection, sketch-guided placement.
	StrategyBandwidthAware PartitionStrategy = iota
	// StrategyParMetis runs the same bisection kernel but places
	// partitions on random machines, like ParMetis in the cloud (§6.2).
	StrategyParMetis
	// StrategyRandom assigns vertices to partitions uniformly at random
	// (the Table 5 sanity baseline) with random placement.
	StrategyRandom
)

func (s PartitionStrategy) String() string {
	switch s {
	case StrategyBandwidthAware:
		return "bandwidth-aware"
	case StrategyParMetis:
		return "parmetis"
	case StrategyRandom:
		return "random"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config describes a Surfer deployment.
type Config struct {
	// Graph is the data graph.
	Graph *graph.Graph
	// Topology is the simulated cluster.
	Topology *cluster.Topology
	// Levels is log2 of the partition count. When 0 and MemoryBudget is
	// set, the level count follows the paper's sizing rule
	// P = 2^ceil(log2(||G||/r)); when both are zero, a single partition
	// is used.
	Levels int
	// MemoryBudget is the per-machine memory in bytes for auto-sizing.
	MemoryBudget int64
	// Strategy selects the partitioner; default bandwidth-aware.
	Strategy PartitionStrategy
	// Seed drives every randomized choice.
	Seed int64
	// Failures inject machine deaths into runners created by NewRunner.
	Failures []engine.Failure
	// HeartbeatInterval is the failure-detection latency (default 1s).
	HeartbeatInterval float64
	// Workers sizes the engine's compute worker pool for runners created
	// by NewRunner: 0 selects GOMAXPROCS, 1 forces serial execution.
	// Results are bit-identical for every value.
	Workers int
	// Trace, when non-nil, receives the structured event stream of every
	// runner created by NewRunner: task starts/finishes, NIC transfers
	// with queueing delays, stage barriers, failures and retries. Export
	// it with trace.WriteChrome or fold it with trace.Summarize. Nil (the
	// default) disables tracing at zero cost.
	Trace *trace.Recorder
	// Faults injects transient faults (degraded links, dropped transfers,
	// machine slowdowns) into runners created by NewRunner. Nil disables
	// them at zero cost; the schedule is validated at Build time.
	Faults *fault.Schedule
	// Retry governs dropped-transfer detection and backoff; the zero value
	// selects the defaults.
	Retry fault.RetryPolicy
	// Speculation enables backup tasks for stragglers.
	Speculation fault.SpeculationPolicy
}

// System is a fully assembled Surfer deployment: partitioned, placed and
// replicated, ready to run jobs.
type System struct {
	Graph     *graph.Graph
	Topology  *cluster.Topology
	PG        *storage.PartitionedGraph
	Sketch    *partition.Sketch
	Placement *partition.Placement
	Replicas  *storage.Replicas
	// Steps records the distributed-partitioning cost steps (empty for
	// StrategyRandom).
	Steps []partition.BisectStep

	cfg Config
}

// Build partitions, places and replicates the graph per the configuration.
func Build(cfg Config) (*System, error) {
	if cfg.Graph == nil || cfg.Topology == nil {
		return nil, fmt.Errorf("core: config requires Graph and Topology")
	}
	if cfg.Levels < 0 {
		return nil, fmt.Errorf("core: negative level count %d", cfg.Levels)
	}
	if cfg.Topology.NumMachines() == 0 {
		return nil, fmt.Errorf("core: topology %s has no machines", cfg.Topology.Name())
	}
	levels := cfg.Levels
	if levels == 0 && cfg.MemoryBudget > 0 {
		levels, _ = partition.ChoosePartitionCount(cfg.Graph.SizeBytes(), cfg.MemoryBudget)
	}
	var res *partition.Result
	switch cfg.Strategy {
	case StrategyBandwidthAware, StrategyParMetis:
		pt, sk := partition.RecursiveBisect(cfg.Graph, levels, partition.Options{Seed: cfg.Seed})
		if cfg.Strategy == StrategyBandwidthAware {
			res = partition.SketchLayout(cfg.Graph, pt, sk, cfg.Topology)
		} else {
			res = partition.ObliviousLayout(cfg.Graph, pt, sk, cfg.Topology, cfg.Seed+1)
		}
	case StrategyRandom:
		pt := partition.Random(cfg.Graph, 1<<levels, cfg.Seed)
		res = &partition.Result{Partitioning: pt, Placement: partition.RandomPlacement(pt.P, cfg.Topology, cfg.Seed)}
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", cfg.Strategy)
	}
	pg, err := storage.Build(cfg.Graph, res.Partitioning)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Graph: cfg.Graph, Topology: cfg.Topology, PG: pg,
		Sketch: res.Sketch, Placement: res.Placement, Steps: res.Steps, cfg: cfg,
	}
	if err := sys.Placement.Validate(cfg.Topology); err != nil {
		return nil, err
	}
	sys.Replicas = storage.PlaceReplicas(sys.Placement, cfg.Topology, cfg.Seed)
	// Fail fast on malformed fault plans: a bad kill schedule or fault
	// window should be a Build error, not a mid-run hang.
	if err := engine.ValidateFailures(cfg.Failures, cfg.Topology, sys.Replicas); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(cfg.Topology.NumMachines()); err != nil {
		return nil, err
	}
	return sys, nil
}

// NewRunner creates a fresh engine runner over this system's topology,
// replicas, partition sizes (the bytes a drain migrates) and the configured
// failure, fault, trace and worker settings. It is the one place a
// deployment's runner is configured. Each experiment should use its own
// runner so clocks and metrics start at zero.
func (s *System) NewRunner() *engine.Runner {
	return engine.New(engine.Config{
		Topo:              s.Topology,
		Replicas:          s.Replicas,
		Failures:          s.cfg.Failures,
		HeartbeatInterval: s.cfg.HeartbeatInterval,
		Workers:           s.cfg.Workers,
		Trace:             s.cfg.Trace,
		Faults:            s.cfg.Faults,
		Retry:             s.cfg.Retry,
		Speculation:       s.cfg.Speculation,
		PartBytes:         s.PG.PartBytes(),
	})
}

// PartitioningTime estimates the elapsed time of the distributed
// partitioning run itself under the given cost model (Table 1). It returns
// 0 for StrategyRandom, which records no steps.
func (s *System) PartitioningTime(cm partition.CostModel) float64 {
	if len(s.Steps) == 0 {
		return 0
	}
	res := &partition.Result{Steps: s.Steps}
	staged := s.cfg.Strategy == StrategyParMetis
	return cm.PartitioningTime(res, s.Topology, staged)
}

// InnerEdgeRatio reports the partitioning quality metric of Table 5.
func (s *System) InnerEdgeRatio() float64 {
	return partition.InnerEdgeRatio(s.Graph, s.PG.Part)
}

// RunPropagation executes a propagation program for the given number of
// iterations on a fresh state, returning the final state and metrics.
func RunPropagation[V any](s *System, r *engine.Runner, prog propagation.Program[V], iters int, opt propagation.Options) (*propagation.State[V], engine.Metrics, error) {
	st := propagation.NewState[V](s.PG, prog)
	return propagation.RunIterations(r, s.PG, s.Placement, prog, st, opt, iters)
}

// RunCascaded is RunPropagation with cascaded multi-iteration optimization
// (§5.2).
func RunCascaded[V any](s *System, r *engine.Runner, prog propagation.Program[V], iters int, opt propagation.Options) (*propagation.State[V], engine.Metrics, error) {
	st := propagation.NewState[V](s.PG, prog)
	return propagation.RunCascaded(r, s.PG, s.Placement, prog, st, opt, iters, nil)
}

// RunCheckpointed is RunPropagation with iteration checkpointing: state is
// persisted to replicas every ckpt.Interval iterations, and a machine death
// replays at most that many iterations instead of the whole run.
func RunCheckpointed[V any](s *System, r *engine.Runner, prog propagation.Program[V], iters int, opt propagation.Options, ckpt propagation.CheckpointConfig) (*propagation.State[V], engine.Metrics, error) {
	if ckpt.Interval > 0 && ckpt.Replicas == nil {
		ckpt.Replicas = s.Replicas
	}
	st := propagation.NewState[V](s.PG, prog)
	return propagation.RunCheckpointed(r, s.PG, s.Placement, prog, st, opt, iters, ckpt)
}

// RunMapReduce executes a MapReduce program once.
func RunMapReduce[K mapreduce.Key, V any, R any](s *System, r *engine.Runner, prog mapreduce.Program[K, V, R], opt mapreduce.Options) (map[K]R, engine.Metrics, error) {
	return mapreduce.Run[K, V, R](r, s.PG, s.Placement, prog, opt)
}
