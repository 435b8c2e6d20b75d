package partition

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// Placement maps each partition to the machine that stores and processes its
// primary replica.
type Placement struct {
	// MachineOf[p] is the machine storing partition p.
	MachineOf []cluster.MachineID
}

// NumPartitions reports how many partitions the placement covers.
func (pl *Placement) NumPartitions() int { return len(pl.MachineOf) }

// Validate checks that every partition has a machine within the topology.
func (pl *Placement) Validate(t *cluster.Topology) error {
	for p, m := range pl.MachineOf {
		if int(m) < 0 || int(m) >= t.NumMachines() {
			return fmt.Errorf("partition: partition %d placed on invalid machine %d", p, m)
		}
	}
	return nil
}

// BisectStep records one bisection performed during distributed
// partitioning, for the elapsed-time cost model (Table 1).
type BisectStep struct {
	// Depth is the sketch depth of the node being bisected (0 = root).
	Depth int
	// DataVertices and DataEdges size the subgraph being bisected.
	DataVertices int
	DataEdges    int64
	// Machines is the machine set performing this bisection.
	Machines []cluster.MachineID
	// Local marks a bisection performed entirely on one machine.
	Local bool
}

// Result bundles everything a partitioning run produces.
type Result struct {
	Partitioning *Partitioning
	Sketch       *Sketch
	Placement    *Placement
	Steps        []BisectStep
}

// BandwidthAware runs Algorithm 4: it simultaneously bisects the machine
// graph and the data graph, using each machine-graph half to process (and
// finally store) the corresponding data-graph half. The resulting placement
// realizes the three design principles P1–P3 of §4.1: sibling partitions in
// the sketch (many mutual cross edges, by proximity) land on machine sets
// with high mutual bandwidth.
//
// The data-graph bisection is the shared RecursiveBisect kernel, so the
// partitioning and sketch are exactly the bandwidth-oblivious ones; the
// machine-graph side is SketchPlacement, and SketchLayout records the
// cost-model steps of the lockstep recursion.
func BandwidthAware(g *graph.Graph, topo *cluster.Topology, levels int, opt Options) *Result {
	pt, sk := RecursiveBisect(g, levels, opt)
	return SketchLayout(g, pt, sk, topo)
}

// SketchLayout places a sketch-partitioned graph bandwidth-aware
// (SketchPlacement) and records the distributed-partitioning steps
// Algorithm 4 performs: each sketch node above the leaves is bisected by
// the machine set its machine-graph half owns, and a single machine divides
// the rest of its subtree locally in one step (Algorithm 4 lines 2-5).
func SketchLayout(g *graph.Graph, pt *Partitioning, sk *Sketch, topo *cluster.Topology) *Result {
	res := &Result{Partitioning: pt, Sketch: sk, Placement: SketchPlacement(sk, topo)}
	var walk func(depth, index int, mg *cluster.MachineGraph)
	walk = func(depth, index int, mg *cluster.MachineGraph) {
		if depth == sk.Levels() {
			return
		}
		subset := sk.Node(depth, index)
		res.Steps = append(res.Steps, BisectStep{
			Depth: depth, DataVertices: len(subset),
			DataEdges: countSubsetEdges(g, subset),
			Machines:  mg.Machines(), Local: mg.Size() == 1,
		})
		if mg.Size() == 1 {
			return
		}
		m1, m2 := mg.Bisect()
		walk(depth+1, 2*index, m1)
		walk(depth+1, 2*index+1, m2)
	}
	walk(0, 0, cluster.NewMachineGraph(topo))
	return res
}

// ParMetisLike runs the same multilevel recursive bisection on the data
// graph but is oblivious to network bandwidth: at every recursion step it
// picks a *random* machine subset to process each half, and stores each
// final partition on a random machine of the subset that produced it — the
// baseline behaviour the paper attributes to ParMetis on cloud clusters
// ("randomly chooses the available machine for processing", §6.2).
func ParMetisLike(g *graph.Graph, topo *cluster.Topology, levels int, opt Options) *Result {
	pt, sk := RecursiveBisect(g, levels, opt)
	return ObliviousLayout(g, pt, sk, topo, opt.Seed+1)
}

// ObliviousLayout places a sketch-partitioned graph the bandwidth-oblivious
// way (RandomPlacement) and records the steps of a recursion that hands
// each half to a random machine subset; seed drives both choices.
func ObliviousLayout(g *graph.Graph, pt *Partitioning, sk *Sketch, topo *cluster.Topology, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	res := &Result{Partitioning: pt, Sketch: sk, Placement: RandomPlacement(pt.P, topo, seed)}

	// Cost-model steps: the recursion assigns random machine subsets of
	// the same sizes the bandwidth-aware version would use.
	all := make([]cluster.MachineID, topo.NumMachines())
	for i := range all {
		all[i] = cluster.MachineID(i)
	}
	var walk func(depth, index int, machines []cluster.MachineID)
	walk = func(depth, index int, machines []cluster.MachineID) {
		subset := sk.Node(depth, index)
		if len(subset) == 0 {
			return
		}
		local := len(machines) == 1
		res.Steps = append(res.Steps, BisectStep{
			Depth: depth, DataVertices: len(subset),
			DataEdges: countSubsetEdges(g, subset),
			Machines:  machines, Local: local,
		})
		if depth+1 > sk.Levels() || local {
			return
		}
		// Split the machine set randomly in half (bandwidth-oblivious).
		shuffled := make([]cluster.MachineID, len(machines))
		copy(shuffled, machines)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		h := len(shuffled) / 2
		walk(depth+1, 2*index, shuffled[:h])
		walk(depth+1, 2*index+1, shuffled[h:])
	}
	walk(0, 0, all)
	return res
}

// RandomPlacement places partitions on machines in a random but *balanced*
// way: every machine receives floor(P/N) or ceil(P/N) partitions, with the
// pairing randomized. This models a bandwidth-oblivious but load-balanced
// layout (what a topology-unaware scheduler produces); comparing it against
// SketchPlacement isolates bandwidth awareness from load balancing.
func RandomPlacement(p int, topo *cluster.Topology, seed int64) *Placement {
	rng := rand.New(rand.NewSource(seed))
	n := topo.NumMachines()
	slots := make([]cluster.MachineID, p)
	for i := range slots {
		slots[i] = cluster.MachineID(i % n)
	}
	rng.Shuffle(p, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return &Placement{MachineOf: slots}
}

// UnbalancedRandomPlacement places each partition on a uniformly random
// machine with no balance constraint — the literal reading of "randomly
// chooses the available machine" (§6.2). Collisions leave some machines
// with several partitions and others with none, so comparisons against it
// mix load-balance and bandwidth-awareness effects; the ablation experiment
// separates the two.
func UnbalancedRandomPlacement(p int, topo *cluster.Topology, seed int64) *Placement {
	rng := rand.New(rand.NewSource(seed))
	pl := &Placement{MachineOf: make([]cluster.MachineID, p)}
	for i := range pl.MachineOf {
		pl.MachineOf[i] = cluster.MachineID(rng.Intn(topo.NumMachines()))
	}
	return pl
}

// SketchPlacement derives a bandwidth-aware placement for an existing
// sketch-partitioned graph on a topology: it bisects the machine graph in
// lockstep with the sketch structure without re-partitioning the data. This
// is how optimization level O2/O4 layouts are derived from an O1/O3
// partitioning in the evaluation (§6.3).
func SketchPlacement(sk *Sketch, topo *cluster.Topology) *Placement {
	pl := &Placement{MachineOf: make([]cluster.MachineID, sk.NumPartitions())}
	var walk func(depth, index int, mg *cluster.MachineGraph)
	walk = func(depth, index int, mg *cluster.MachineGraph) {
		if depth == sk.Levels() {
			pl.MachineOf[index] = mg.BestConnected()
			return
		}
		if mg.Size() == 1 {
			// Map the whole subtree of partitions onto this machine.
			m := mg.Machines()[0]
			first := index << (sk.Levels() - depth)
			count := 1 << (sk.Levels() - depth)
			for i := 0; i < count; i++ {
				pl.MachineOf[first+i] = m
			}
			return
		}
		m1, m2 := mg.Bisect()
		walk(depth+1, 2*index, m1)
		walk(depth+1, 2*index+1, m2)
	}
	walk(0, 0, cluster.NewMachineGraph(topo))
	return pl
}

// countSubsetEdges counts directed edges of g with both endpoints in subset.
func countSubsetEdges(g *graph.Graph, subset []graph.VertexID) int64 {
	in := makeMemberSet(g.NumVertices(), subset)
	var c int64
	for _, v := range subset {
		for _, nb := range g.Neighbors(v) {
			if in[nb] {
				c++
			}
		}
	}
	return c
}
