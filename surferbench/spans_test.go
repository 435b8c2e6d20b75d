package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSelfTimes(t *testing.T) {
	// A phase [0,10] with children [1,3] and [2,6] (overlapping: union
	// [1,6] covers 5) and [8,12] (clipped to [8,10] covers 2); the child
	// [1,3] has its own child [1,2].
	spans := selfTimes([]span{
		{ID: 10, Parent: noSpan, Start: 0, End: 10},
		{ID: 11, Parent: 10, Start: 1, End: 3},
		{ID: 12, Parent: 10, Start: 2, End: 6},
		{ID: 13, Parent: 10, Start: 8, End: 12},
		{ID: 14, Parent: 11, Start: 1, End: 2},
	})
	for i, want := range []float64{3, 1, 4, 4, 1} {
		if !near(spans[i].Self, want) {
			t.Errorf("span %d self = %g, want %g", spans[i].ID, spans[i].Self, want)
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		ivs    [][2]float64
		want   float64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]float64{{2, 4}, {6, 7}}, 3},
		{0, 10, [][2]float64{{6, 7}, {2, 4}, {3, 5}}, 4},
		{0, 10, [][2]float64{{-5, 2}, {9, 20}}, 3},
		{0, 10, [][2]float64{{2, 8}, {3, 4}}, 6},
	} {
		if got := covered(c.lo, c.hi, c.ivs); !near(got, c.want) {
			t.Errorf("covered(%g, %g, %v) = %g, want %g", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	if id := off.begin("x", "x_s"); id != noSpan {
		t.Fatalf("nil tracer opened span %d", id)
	}
	off.end(noSpan)
	off.unwind()

	tr := newTracer()
	run := tr.nextRun()
	outer := tr.begin("setup", "")
	inner := tr.begin("graph.ReadFrom", "graph.load_s")
	tr.end(inner)
	left := tr.begin("partition.BandwidthAware", "partition.s")
	tr.unwind() // closes left, then outer
	spans := tr.runSpans(run)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[1].Parent != outer || spans[2].Parent != outer || spans[0].Parent != noSpan {
		t.Errorf("parents = %d, %d, %d", spans[0].Parent, spans[1].Parent, spans[2].Parent)
	}
	if spans[left].End > spans[outer].End || spans[inner].Start < spans[outer].Start {
		t.Errorf("children outside their parent: %+v", spans)
	}
	if spans[outer].Self > spans[outer].dur() || spans[outer].Self < 0 {
		t.Errorf("outer self %g outside [0, %g]", spans[outer].Self, spans[outer].dur())
	}
	var out bytes.Buffer
	if err := tr.write(&out); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	for i := 0; i < 3; i++ {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("span line %d: %v", i, err)
		}
		if s.Run != run || s.Name == "" {
			t.Errorf("span line %d = %+v", i, s)
		}
	}
}
