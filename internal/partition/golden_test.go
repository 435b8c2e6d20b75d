package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// bandwidthAwareDigest hashes everything BandwidthAware decides: the vertex
// assignment, the partition placement and every cost-model step.
func bandwidthAwareDigest(res *Result) string {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, p := range res.Partitioning.Assign {
		put(int64(p))
	}
	for _, m := range res.Placement.MachineOf {
		put(int64(m))
	}
	for _, st := range res.Steps {
		put(int64(st.Depth))
		put(int64(st.DataVertices))
		put(st.DataEdges)
		put(int64(len(st.Machines)))
		for _, m := range st.Machines {
			put(int64(m))
		}
		if st.Local {
			put(1)
		} else {
			put(0)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBandwidthAwareGolden pins BandwidthAware's partitioning, placement and
// Steps across topologies, level counts and seeds, plus a graph with fewer
// vertices than partitions, so rewrites of Algorithm 4 must reproduce them
// exactly.
func TestBandwidthAwareGolden(t *testing.T) {
	g := graph.Social(graph.DefaultSocial(1024, 5))
	tiny := graph.FromEdges(5, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	cases := []struct {
		name   string
		g      *graph.Graph
		topo   *cluster.Topology
		levels []int
		want   string
	}{
		{"T1(6)", g, cluster.NewT1(6), []int{0, 1, 3, 4}, "2d8cf04e8c433804"},
		{"T2(8,2)", g, cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1}), []int{0, 1, 3, 4}, "48fa360bb8862905"},
		{"T2(16,4,2)", g, cluster.NewT2(cluster.T2Config{Machines: 16, Pods: 4, Levels: 2}), []int{0, 1, 3, 4}, "c2bc09459b72ca00"},
		{"T3(8)", g, cluster.NewT3(8, 7), []int{0, 1, 3, 4}, "85ca23b8a5403bb5"},
		{"tiny-T1(3)", tiny, cluster.NewT1(3), []int{3, 4}, "8c9d14b377af6d50"},
	}
	for _, c := range cases {
		h := fnv.New64a()
		for _, levels := range c.levels {
			for _, seed := range []int64{1, 2} {
				res := BandwidthAware(c.g, c.topo, levels, Options{Seed: seed})
				fmt.Fprintf(h, "%d/%d:%s;", levels, seed, bandwidthAwareDigest(res))
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
