// Command surferbench is the repository's benchmark. It generates one
// workload's inputs from a seed, then repeatedly sets up, runs and observes
// the program on them in this process, checks every output, and prints each
// metric by name and unit, ending with one JSON line:
//
//	surferbench --workload social-pagerank-prop --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: host CPU seconds per
// phase (medians over the run's set-ups and repetitions) and the simulated
// (virtual) metrics, which must repeat exactly.
// With --trace 1 it alternates untraced and traced cycles and reports the
// per-layer metrics taken from spans around each call into a layer, plus
// the tracing overhead; the spans are written to a JSON-lines file at exit.
// Build and run it from a checkout with surferbench/run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A run makes at least minCycles cycles (two when traced, alternating
// untraced and traced cycles), and keeps starting cycles until --seconds
// have passed. A cycle is one set-up followed by the workload's repetitions
// of run and observe on the deployment it built.
const (
	minCycles       = 3
	minTracedCycles = 2
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("surferbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: social-pagerank-prop, rmat-pagerank-mr or multitenant-observed")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 10, "keep starting cycles until this many seconds have passed")
		traceArg = fs.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from traced cycles")
		spansOut = fs.String("spans", "", "file the spans of a traced run are written to (default .bench_build/spans-<workload>-<seed>.jsonl)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "surferbench: unknown workload %q\n", *name)
		return 2
	case *traceArg != 0 && *traceArg != 1:
		fmt.Fprintf(stderr, "surferbench: --trace must be 0 or 1, got %d\n", *traceArg)
		return 2
	case *seconds < 0:
		fmt.Fprintf(stderr, "surferbench: --seconds must not be negative\n")
		return 2
	}
	traced := *traceArg == 1
	// Workers = 0 sizes the program's pools by GOMAXPROCS, which must not
	// exceed the CPUs this process may use.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))

	sum, err := measure(w, fullSize, *seed, *seconds, traced, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "surferbench: %v\n", err)
		return 1
	}
	var ms []reported
	if traced {
		ms = sum.perLayer()
		path := *spansOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		}
		if err := writeSpans(path, sum.tracer); err != nil {
			fmt.Fprintf(stderr, "surferbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s (%d)\n", path, len(sum.tracer.spans))
	} else {
		ms = sum.endToEnd()
	}
	if err := report(stdout, sum, ms); err != nil {
		fmt.Fprintf(stderr, "surferbench: %v\n", err)
		return 1
	}
	return 0
}

// sample is one timed unit of a run: a set-up, or one repetition (run,
// then observe). Each has its own span run id when traced.
type sample struct {
	traced bool
	run    int
	// setup is the set-up's host seconds; res is a repetition's result
	// (nil for set-ups).
	setup float64
	res   *result
}

// summary is a whole run: every sample that completed, and the operation
// tally over all of them.
type summary struct {
	samples           []sample
	tracer            *tracer
	attempted, failed int
}

// measure generates the inputs, then runs cycles. Every repetition's
// outputs are checked, and its virtual metrics and exact counters must
// equal the first repetition's; a repetition (or set-up) that errors or
// drifts fails all its operations.
func measure(w workload, sz size, seed int64, seconds float64, traced bool, log io.Writer) (*summary, error) {
	in, err := w.gen(seed, sz)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	ops := in.ops
	sum := &summary{}
	want := minCycles
	if traced {
		sum.tracer = newTracer()
		want = minTracedCycles
	}
	var first *result
	start := time.Now()
	for i := 0; i < want || time.Since(start).Seconds() < seconds; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = sum.tracer
		}
		id := tr.nextRun()
		c := startPhase(tr, phaseSetup)
		d, err := w.setup(in, sz, tr)
		secs := c.stop()
		tr.unwind()
		if err != nil {
			sum.attempted += ops * w.reps
			sum.failed += ops * w.reps
			fmt.Fprintf(log, "cycle %d: set-up error: %v\n", i, err)
			continue
		}
		sum.samples = append(sum.samples, sample{traced: tr != nil, run: id, setup: secs})
		fmt.Fprintf(log, "cycle %d (traced=%v): setup %.4fs", i, tr != nil, secs)
		for r := 0; r < w.reps; r++ {
			id := tr.nextRun()
			res, err := w.run(d, in, sz, tr)
			tr.unwind()
			sum.attempted += ops
			if err != nil {
				sum.failed += ops
				fmt.Fprintf(log, "\ncycle %d: error: %v", i, err)
				continue
			}
			if first == nil {
				first = res
			} else if name := drift(first, res); name != "" {
				res.fail(res.attempted, "%s differs from the first repetition", name)
			}
			sum.failed += res.failed
			for _, p := range res.problems {
				fmt.Fprintf(log, "\ncycle %d: failed: %s", i, p)
			}
			fmt.Fprintf(log, " | run %.4fs observe %.4fs", res.run, res.observe)
			sum.samples = append(sum.samples, sample{traced: tr != nil, run: id, res: res})
		}
		fmt.Fprintln(log)
	}
	if first == nil {
		return nil, errors.New("no repetition completed")
	}
	return sum, nil
}

// drift names the first virtual metric or exact counter of b that differs
// from a, or returns "".
func drift(a, b *result) string {
	for _, pair := range [][2][]named{{a.virtual, b.virtual}, {a.counts, b.counts}} {
		x, y := pair[0], pair[1]
		if len(x) != len(y) {
			return "the set of counters"
		}
		for i := range x {
			if x[i] != y[i] {
				return x[i].name
			}
		}
	}
	return ""
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints one line per metric, then the result as the last line.
func report(w io.Writer, sum *summary, ms []reported) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   sum.failed == 0,
		Attempted: sum.attempted,
		Failed:    sum.failed,
		Metrics:   make(map[string]value, len(ms)),
	}
	for _, m := range ms {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", sum.attempted, sum.failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
