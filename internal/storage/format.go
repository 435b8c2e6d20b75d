package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Partition file format: the adjacency lists of one partition in the
// <ID, d, neighbors> layout of §3, little-endian.
//
//	magic   uint32  'S','R','F','P'
//	version uint32  1
//	partID  uint32
//	nVerts  uint32
//	repeated nVerts times:
//	  id    uint32
//	  d     uint32
//	  nbrs  [d]uint32
const (
	partMagic   = uint32('S') | uint32('R')<<8 | uint32('F')<<16 | uint32('P')<<24
	partVersion = 1
)

// WritePartition serializes one partition's adjacency lists.
func WritePartition(w io.Writer, g *graph.Graph, pi *PartInfo) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []uint32{partMagic, partVersion, uint32(pi.ID), uint32(len(pi.Vertices))}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for _, v := range pi.Vertices {
		ns := g.Neighbors(v)
		if err := binary.Write(bw, binary.LittleEndian, []uint32{uint32(v), uint32(len(ns))}); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, ns); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// PartitionData is the decoded form of a partition file.
type PartitionData struct {
	ID       partition.PartID
	Vertices []graph.VertexID
	// Adjacency[i] holds the out-neighbors of Vertices[i] (global IDs).
	Adjacency [][]graph.VertexID
}

// ReadPartition decodes a partition file written by WritePartition.
func ReadPartition(r io.Reader) (*PartitionData, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [4]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("storage: reading partition header: %w", err)
	}
	if hdr[0] != partMagic {
		return nil, fmt.Errorf("storage: bad partition magic %#x", hdr[0])
	}
	if hdr[1] != partVersion {
		return nil, fmt.Errorf("storage: unsupported partition version %d", hdr[1])
	}
	// The header's vertex count and each degree are claims, not sizes to
	// allocate: the lists grow as vertices actually arrive and neighbors
	// are read in bounded slabs, so a lying header costs at most one slab.
	pd := &PartitionData{ID: partition.PartID(hdr[2])}
	for i := uint32(0); i < hdr[3]; i++ {
		var vh [2]uint32
		if err := binary.Read(br, binary.LittleEndian, &vh); err != nil {
			return nil, fmt.Errorf("storage: reading vertex %d: %w", i, err)
		}
		ns, err := graph.ReadChunked[graph.VertexID](br, uint64(vh[1]), "neighbors")
		if err != nil {
			return nil, fmt.Errorf("storage: vertex %d: %w", i, err)
		}
		pd.Vertices = append(pd.Vertices, graph.VertexID(vh[0]))
		pd.Adjacency = append(pd.Adjacency, ns)
	}
	return pd, nil
}
