package main

import (
	"encoding/json"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"syscall"
)

// cpuSeconds is the CPU time this process has used, user plus system, over
// all its threads. Host timings use it rather than the wall clock: on a
// shared machine other load stretches wall time but not the work done.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// noSpan is the parent of a root span, and the handle begin returns when
// span recording is off.
const noSpan = -1

// span is one timed call into a layer (or one benchmark phase) made from the
// benchmark's own code. Start and End are readings of the process CPU clock
// (cpuSeconds); the runtime deltas cover the same interval.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	// Metric is the per-layer time metric the span's duration adds to;
	// empty for phase spans.
	Metric string  `json:"metric,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// Self is the duration minus the part of it covered by child spans,
	// filled in by selfTimes.
	Self       float64 `json:"self"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
	GCCycles   uint64  `json:"gc_cycles"`
	GCCPU      float64 `json:"gc_cpu_s"`
	GCPause    float64 `json:"gc_pause_s"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// rtSample is the runtime state read at a span boundary.
type rtSample struct {
	at         float64
	allocBytes uint64
	allocs     uint64
	gcCycles   uint64
	gcCPU      float64
	gcPause    float64
}

// tracer records spans in memory. A nil tracer records nothing: begin and
// end return at once, so untraced cycles pay one branch per call.
type tracer struct {
	run     int
	spans   []span
	open    []int      // stack of open span IDs
	opened  []rtSample // runtime state when each open span began
	samples []rtmetrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		samples: []rtmetrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
		},
	}
}

// read samples the runtime counters a span records deltas of. The GC pause
// total comes from MemStats, which keeps an exact sum; runtime/metrics has
// only a histogram of pauses.
func (t *tracer) read() rtSample {
	rtmetrics.Read(t.samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSample{
		allocBytes: t.samples[0].Value.Uint64(),
		allocs:     t.samples[1].Value.Uint64(),
		gcCycles:   t.samples[2].Value.Uint64(),
		gcCPU:      t.samples[3].Value.Float64(),
		gcPause:    float64(ms.PauseTotalNs) / 1e9,
	}
}

// begin opens a span named after the call it times, nested under the
// innermost open span. metric names the per-layer time metric it feeds.
func (t *tracer) begin(name, metric string) int {
	if t == nil {
		return noSpan
	}
	parent := noSpan
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Metric: metric})
	t.open = append(t.open, id)
	// Read the clock after the runtime sample at the start and before it
	// at the end, so sampling costs fall in the parent's self time.
	from := t.read()
	from.at = cpuSeconds()
	t.opened = append(t.opened, from)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if id == noSpan {
		return
	}
	at := cpuSeconds()
	now := t.read()
	now.at = at
	top := len(t.open) - 1
	if t.open[top] != id {
		panic("surferbench: spans closed out of order")
	}
	from := t.opened[top]
	t.open, t.opened = t.open[:top], t.opened[:top]
	s := &t.spans[id]
	s.Start = from.at
	s.End = now.at
	s.AllocBytes = now.allocBytes - from.allocBytes
	s.Allocs = now.allocs - from.allocs
	s.GCCycles = now.gcCycles - from.gcCycles
	s.GCCPU = now.gcCPU - from.gcCPU
	s.GCPause = now.gcPause - from.gcPause
}

// nextRun starts a new run id for the spans that follow and returns it;
// noSpan on a nil tracer.
func (t *tracer) nextRun() int {
	if t == nil {
		return noSpan
	}
	t.run++
	return t.run
}

// unwind closes every span left open by a cycle that stopped early.
func (t *tracer) unwind() {
	for t != nil && len(t.open) > 0 {
		t.end(t.open[len(t.open)-1])
	}
}

// runSpans returns the spans of run r with self times filled in.
func (t *tracer) runSpans(r int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Run == r {
			out = append(out, s)
		}
	}
	return selfTimes(out)
}

// selfTimes sets each span's Self to its duration minus the union of its
// children's intervals clipped to it, and returns spans. Parent IDs refer to
// span IDs within the slice.
func selfTimes(spans []span) []span {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := make([][][2]float64, len(spans))
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok {
			kids[p] = append(kids[p], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].dur() - covered(spans[i].Start, spans[i].End, kids[i])
	}
	return spans
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi float64, ivs [][2]float64) float64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]float64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	total, reach := 0.0, lo
	for _, iv := range ivs {
		from, to := max(iv[0], reach), min(iv[1], hi)
		if to > from {
			total += to - from
			reach = to
		}
	}
	return total
}

// write emits every recorded span as one JSON object per line, with self
// times filled in.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range selfTimes(slices.Clone(t.spans)) {
		if err := enc.Encode(&s); err != nil {
			return err
		}
	}
	return nil
}
