package analyze

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// FuzzAnalyzeStream feeds arbitrary bytes through every reader of a raw
// event stream: trace.ReadEvents, then Analyze, Autoscale (when the stream
// carries a topology header), trace.Summarize and metrics.FromEvents. Any
// of them may reject the input, none may panic or allocate beyond the
// stream's size. The committed corpus replays the task-ends on machine -1
// (once an index panic) and machine 2000000000 (once a 16 GB allocation).
func FuzzAnalyzeStream(f *testing.F) {
	valid, err := os.ReadFile("../trace/testdata/valid.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := trace.ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		var topo *cluster.Topology
		if s.Topo != nil {
			topo = cluster.NewTopologyFromMatrix(s.Topo.Name, s.Topo.Bandwidth)
			if _, err := Autoscale(s.Events, topo, AutoscalePolicy{}); err != nil {
				return
			}
		}
		if _, err := Analyze(s.Events, topo); err != nil {
			return
		}
		trace.Summarize(s.Events)
		// Window the series like surfer-metrics does by default: 32 windows
		// over the stream's extent.
		var end float64
		for i := range s.Events {
			end = max(end, s.Events[i].Time, s.Events[i].End)
		}
		if end > 0 {
			metrics.FromEvents(s.Events, metrics.Config{Window: end / 32, Topo: topo})
		}
	})
}
