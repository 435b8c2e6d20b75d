package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary format: a little-endian header followed by the CSR arrays.
//
//	magic   uint32  'S','R','F','G'
//	version uint32  1
//	nVerts  uint64
//	nEdges  uint64
//	offsets [nVerts+1]int64
//	targets [nEdges]uint32
//
// This is the adjacency-list storage from §3 flattened into two arrays; the
// per-vertex degree d is offsets[v+1]-offsets[v].
const (
	fileMagic   = uint32('S') | uint32('R')<<8 | uint32('F')<<16 | uint32('G')<<24
	fileVersion = 1
)

// WriteTo serializes the graph to w in the Surfer binary format.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var written int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		written += int64(binary.Size(v))
		return nil
	}
	if err := put(fileMagic); err != nil {
		return written, err
	}
	if err := put(uint32(fileVersion)); err != nil {
		return written, err
	}
	if err := put(uint64(g.NumVertices())); err != nil {
		return written, err
	}
	if err := put(uint64(g.NumEdges())); err != nil {
		return written, err
	}
	if err := put(g.offsets); err != nil {
		return written, err
	}
	if err := put(g.targets); err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// ReadFrom deserializes a graph written by WriteTo.
func ReadFrom(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("graph: reading version: %w", err)
	}
	if version != fileVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	var nv, ne uint64
	if err := binary.Read(br, binary.LittleEndian, &nv); err != nil {
		return nil, fmt.Errorf("graph: reading vertex count: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &ne); err != nil {
		return nil, fmt.Errorf("graph: reading edge count: %w", err)
	}
	const maxReasonable = 1 << 31
	if nv > maxReasonable || ne > maxReasonable {
		return nil, fmt.Errorf("graph: implausible sizes V=%d E=%d", nv, ne)
	}
	// Read the arrays in bounded chunks so a corrupt header declaring a
	// huge graph fails fast at end-of-input instead of allocating the
	// declared size up front.
	offsets, err := ReadChunked[int64](br, nv+1, "offsets")
	if err != nil {
		return nil, err
	}
	targets, err := ReadChunked[VertexID](br, ne, "targets")
	if err != nil {
		return nil, err
	}
	if offsets[0] != 0 || offsets[nv] != int64(ne) {
		return nil, fmt.Errorf("graph: corrupt offsets")
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	for i, t := range targets {
		if uint64(t) >= nv {
			return nil, fmt.Errorf("graph: edge target %d at index %d out of range (V=%d)", t, i, nv)
		}
	}
	return &Graph{offsets: offsets, targets: targets}, nil
}

// ReadChunked reads n little-endian values of type T in slabs, growing the
// result as input actually arrives. A header lying about the element count
// therefore errors out after at most one slab of over-allocation. Every
// decoder that sizes a slice from untrusted input reads through it.
func ReadChunked[T int64 | VertexID](r io.Reader, n uint64, what string) ([]T, error) {
	const slab = 1 << 20
	out := make([]T, 0, min(n, slab))
	for remaining := n; remaining > 0; {
		chunk := remaining
		if chunk > slab {
			chunk = slab
		}
		buf := make([]T, chunk)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: reading %s: %w", what, err)
		}
		out = append(out, buf...)
		remaining -= chunk
	}
	return out, nil
}

// Save writes the graph to the named file, creating or truncating it.
func (g *Graph) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := g.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a graph from the named file.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}
