package storage

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// FuzzReadPartition hardens the partition-file decoder against corrupt
// input: it must return an error or consistent data, never panic, and
// never allocate by what a header claims rather than by the bytes that
// actually arrive. The committed corpus replays a 23-byte file whose header
// claims 808M vertices, which once asked for tens of GB up front.
func FuzzReadPartition(f *testing.F) {
	g := graph.Ring(16)
	assign := make([]partition.PartID, 16)
	for v := range assign {
		assign[v] = partition.PartID(v / 8)
	}
	pg, err := Build(g, &partition.Partitioning{Assign: assign, P: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, pi := range pg.Parts {
		var buf bytes.Buffer
		if err := WritePartition(&buf, g, pi); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pd, err := ReadPartition(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(pd.Adjacency) != len(pd.Vertices) {
			t.Fatalf("%d vertices but %d adjacency lists", len(pd.Vertices), len(pd.Adjacency))
		}
		var words int
		for _, ns := range pd.Adjacency {
			words += 2 + len(ns)
		}
		if decoded := 4 * (4 + words); decoded > len(data) {
			t.Fatalf("decoded %d bytes' worth from a %d-byte input", decoded, len(data))
		}
	})
}
