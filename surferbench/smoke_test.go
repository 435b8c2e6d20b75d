package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload at tiny size, untraced and traced,
// through the same cycle loop and output checks as the benchmark.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				sum, err := measure(w, tinySize, 7, 0, traced, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if sum.failed != 0 || sum.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed", traced, sum.failed, sum.attempted)
				}
				var ms []reported
				if traced {
					ms = sum.perLayer()
				} else {
					ms = sum.endToEnd()
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(ms) != len(want) {
					t.Fatalf("traced=%v: %d metrics, want %d", traced, len(ms), len(want))
				}
				for i, m := range ms {
					if m.metricDef != want[i] {
						t.Errorf("metric %d is %v, want %v", i, m.metricDef, want[i])
					}
					if !traced && m.value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.name, m.value)
					}
				}
				if traced {
					// At this size the tracer's own sampling is a visible
					// share of each phase; at full size layer spans cover
					// over 99% of it.
					for _, p := range phaseNames {
						v := valueOf(ms, p+".coverage")
						if v <= 0 || v > 1 {
							t.Errorf("%s.coverage = %g", p, v)
						}
					}
				}
			}
		})
	}
}

func valueOf(ms []reported, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return -1
}

// TestDriftFails checks that a virtual number differing between
// repetitions is caught.
func TestDriftFails(t *testing.T) {
	a := &result{virtual: []named{{"virtual_response_s", 1}}, counts: []named{{"trace.events", 5}}}
	b := &result{virtual: []named{{"virtual_response_s", 1}}, counts: []named{{"trace.events", 6}}}
	if got := drift(a, a); got != "" {
		t.Errorf("drift(a, a) = %q", got)
	}
	if got := drift(a, b); got != "trace.events" {
		t.Errorf("drift(a, b) = %q, want trace.events", got)
	}
}

// TestRunOutput checks the command-line contract: bad arguments exit
// nonzero without a result line.
func TestRunOutput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "rmat-pagerank-mr", "--trace", "2"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
	var s struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	lines := strings.Split(strings.TrimSpace(sampleReport(t)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	if !s.Correct || s.Attempted != 3 || s.Failed != 0 || s.Metrics["setup_s"].Unit != "s" {
		t.Errorf("result line = %+v", s)
	}
}

func sampleReport(t *testing.T) string {
	sum := &summary{attempted: 3, samples: []sample{{setup: 1.5}, {res: &result{run: 2, observe: 1, virtual: []named{{"virtual_response_s", 4}}}}}}
	var out bytes.Buffer
	if err := report(&out, sum, sum.endToEnd()); err != nil {
		t.Fatal(err)
	}
	return out.String()
}
