package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
)

func testConfig(seed int64, strat PartitionStrategy) Config {
	return Config{
		Graph:    graph.SmallWorld(graph.DefaultSmallWorld(1500, seed)),
		Topology: cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1}),
		Levels:   3,
		Strategy: strat,
		Seed:     seed,
	}
}

func TestBuildAllStrategies(t *testing.T) {
	for _, strat := range []PartitionStrategy{StrategyBandwidthAware, StrategyParMetis, StrategyRandom} {
		sys, err := Build(testConfig(1, strat))
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if sys.PG.Part.P != 8 {
			t.Fatalf("%v: P = %d", strat, sys.PG.Part.P)
		}
		if err := sys.PG.Validate(); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if err := sys.Replicas.Validate(sys.Topology); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
	}
}

func TestBuildRejectsMissingInputs(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Fatal("expected error for empty config")
	}
	if _, err := Build(Config{Graph: graph.Ring(4)}); err == nil {
		t.Fatal("expected error for missing topology")
	}
}

func TestBuildAutoSizesPartitions(t *testing.T) {
	g := graph.SmallWorld(graph.DefaultSmallWorld(1000, 2))
	cfg := Config{
		Graph:        g,
		Topology:     cluster.NewT1(4),
		MemoryBudget: g.SizeBytes() / 3, // needs 4 partitions
		Seed:         2,
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.PG.Part.P != 4 {
		t.Fatalf("auto P = %d, want 4", sys.PG.Part.P)
	}
}

func TestInnerEdgeRatioOrdering(t *testing.T) {
	ba, err := Build(testConfig(3, StrategyBandwidthAware))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Build(testConfig(3, StrategyRandom))
	if err != nil {
		t.Fatal(err)
	}
	if ba.InnerEdgeRatio() <= rnd.InnerEdgeRatio() {
		t.Fatalf("bandwidth-aware ier %.3f <= random %.3f", ba.InnerEdgeRatio(), rnd.InnerEdgeRatio())
	}
}

func TestPartitioningTimeOrdering(t *testing.T) {
	cm := partition.DefaultCostModel()
	ba, err := Build(testConfig(4, StrategyBandwidthAware))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Build(testConfig(4, StrategyParMetis))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Build(testConfig(4, StrategyRandom))
	if err != nil {
		t.Fatal(err)
	}
	tBA, tPM := ba.PartitioningTime(cm), pm.PartitioningTime(cm)
	if tBA <= 0 || tPM <= tBA {
		t.Fatalf("partitioning times BA=%.3f PM=%.3f", tBA, tPM)
	}
	if rnd.PartitioningTime(cm) != 0 {
		t.Fatal("random strategy should report no partitioning time")
	}
}

// countProgram counts in-neighbors.
type countProgram struct{}

func (countProgram) Init(graph.VertexID) int64 { return 0 }
func (countProgram) Transfer(_ graph.VertexID, _ int64, dst graph.VertexID, emit propagation.Emit[int64]) {
	emit(dst, 1)
}
func (countProgram) Combine(_ graph.VertexID, _ int64, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}
func (countProgram) Bytes(int64) int64 { return 8 }
func (countProgram) Associative() bool { return true }
func (countProgram) Merge(_ graph.VertexID, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}

func TestRunPropagationEndToEnd(t *testing.T) {
	sys, err := Build(testConfig(5, StrategyBandwidthAware))
	if err != nil {
		t.Fatal(err)
	}
	st, m, err := RunPropagation[int64](sys, sys.NewRunner(), countProgram{}, 1, propagation.Options{LocalPropagation: true, LocalCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	in := sys.Graph.InDegrees()
	for v := range in {
		if st.Values[v] != int64(in[v]) {
			t.Fatalf("value[%d] = %d, want %d", v, st.Values[v], in[v])
		}
	}
	if m.ResponseSeconds <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestRunCascadedEndToEnd(t *testing.T) {
	sys, err := Build(testConfig(6, StrategyBandwidthAware))
	if err != nil {
		t.Fatal(err)
	}
	stPlain, _, err := RunPropagation[int64](sys, sys.NewRunner(), countProgram{}, 4, propagation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stCasc, _, err := RunCascaded[int64](sys, sys.NewRunner(), countProgram{}, 4, propagation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range stPlain.Values {
		if stPlain.Values[v] != stCasc.Values[v] {
			t.Fatalf("cascaded result differs at %d", v)
		}
	}
}

func TestBuildWithFailuresWiresRunner(t *testing.T) {
	cfg := testConfig(7, StrategyBandwidthAware)
	cfg.Failures = []engine.Failure{{Machine: 0, At: 0.001}}
	cfg.HeartbeatInterval = 0.0005
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Running with a failure must still produce correct results.
	st, _, err := RunPropagation[int64](sys, sys.NewRunner(), countProgram{}, 1, propagation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := sys.Graph.InDegrees()
	for v := range in {
		if st.Values[v] != int64(in[v]) {
			t.Fatalf("value[%d] wrong under failure", v)
		}
	}
}

func TestBuildDefaultsToSinglePartition(t *testing.T) {
	g := graph.Ring(64)
	sys, err := Build(Config{Graph: g, Topology: cluster.NewT1(2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.PG.Part.P != 1 {
		t.Fatalf("P = %d, want 1 with no Levels/MemoryBudget", sys.PG.Part.P)
	}
}

func TestBuildUnknownStrategy(t *testing.T) {
	cfg := testConfig(8, PartitionStrategy(99))
	if _, err := Build(cfg); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyBandwidthAware.String() != "bandwidth-aware" ||
		StrategyParMetis.String() != "parmetis" ||
		StrategyRandom.String() != "random" {
		t.Fatal("strategy names wrong")
	}
	if PartitionStrategy(42).String() == "" {
		t.Fatal("unknown strategy must still stringify")
	}
}

// TestBuildRejectsBadSizes: sizes a CLI passes through unchecked are Build
// errors, not panics deep in the partitioner.
func TestBuildRejectsBadSizes(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative levels", func(c *Config) { c.Levels = -1 }},
		{"no machines", func(c *Config) { c.Topology = cluster.NewT1(0) }},
		{"no machines t3", func(c *Config) { c.Topology = cluster.NewT3(0, 1) }},
	} {
		for _, strat := range []PartitionStrategy{StrategyBandwidthAware, StrategyParMetis, StrategyRandom} {
			cfg := testConfig(1, strat)
			c.mutate(&cfg)
			if _, err := Build(cfg); err == nil {
				t.Errorf("%s/%v: Build succeeded", c.name, strat)
			}
		}
	}
}
