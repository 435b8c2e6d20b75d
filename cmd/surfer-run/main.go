// surfer-run executes one of the paper's six benchmark applications on a
// graph over the simulated cluster, with either primitive, and prints the
// response time, total machine time, and I/O metrics.
//
// Usage:
//
//	surfer-run -graph graph.srfg -app nr -primitive propagation -opt o4
//	surfer-run -graph graph.srfg -app tfl -primitive mapreduce
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("surfer-run: ")
	var (
		graphPath  = flag.String("graph", "graph.srfg", "input graph file")
		appName    = flag.String("app", "nr", "application: vdd, rs, nr, rlg, tc, tfl, cc, sssp")
		primitive  = flag.String("primitive", "propagation", "propagation or mapreduce")
		optLevel   = flag.String("opt", "o4", "optimization level o1..o4 (propagation)")
		machines   = flag.Int("machines", 32, "number of machines")
		topoKind   = flag.String("topology", "t1", "topology: t1, t2, t3")
		pods       = flag.Int("pods", 2, "pods (t2)")
		levels     = flag.Int("levels", 6, "log2 of partition count")
		seed       = flag.Int64("seed", 42, "random seed")
		workers    = flag.Int("workers", 0, "compute worker pool size (0 = GOMAXPROCS, 1 = serial); results are identical for every value")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this file (open in chrome://tracing or Perfetto)")
		eventsOut  = flag.String("events", "", "write the raw event stream (with topology header) to this file for surfer-analyze -trace")
		failSpec   = flag.String("fail", "", "comma-separated machine deaths as machine@time (virtual seconds), e.g. 2@1.5,7@3, or a .json fault-schedule file (kills, link faults, slowdowns, joins, drains); failed partitions fail over to replicas")
		heartbeat  = flag.Float64("heartbeat", 0, "failure-detection latency in virtual seconds (0 = engine default, 1s)")
		metricsOut = flag.String("metrics", "", "sample windowed time series live during the run and write the series set to this file (surfer-metrics reads it, or derives the identical set from -events output)")
		metricsWin = flag.Float64("metrics-window", 0.25, "metrics window length in virtual seconds")
		rulesPath  = flag.String("rules", "", "JSON SLO alert rules evaluated live at every window seal; fired/resolved alerts land in the event stream (needs -metrics)")
	)
	flag.Parse()

	g, err := graph.Load(*graphPath)
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	var topo *cluster.Topology
	switch *topoKind {
	case "t1":
		topo = cluster.NewT1(*machines)
	case "t2":
		topo = cluster.NewT2(cluster.T2Config{Machines: *machines, Pods: *pods, Levels: 1})
	case "t3":
		topo = cluster.NewT3(*machines, *seed)
	default:
		log.Fatalf("unknown topology %q", *topoKind)
	}

	var failures []engine.Failure
	var faults *fault.Schedule
	if strings.HasSuffix(*failSpec, ".json") {
		ff, err := fault.Load(*failSpec)
		if err != nil {
			log.Fatal(err)
		}
		// Joins may provision machines past the base topology: expand it so
		// the dormant machines exist in the bandwidth matrix before they join.
		if mm := ff.MaxMachine(); mm >= topo.NumMachines() {
			topo = topo.Expand(mm + 1 - topo.NumMachines())
		}
		if err := ff.Validate(topo.NumMachines()); err != nil {
			log.Fatal(err)
		}
		for _, k := range ff.KillList() {
			failures = append(failures, engine.Failure{Machine: k.Machine, At: k.At})
		}
		faults = ff.Schedule()
	} else if failures, err = parseFailures(*failSpec); err != nil {
		log.Fatal(err)
	}

	app := findApp(*appName)
	if app == nil {
		log.Fatalf("unknown app %q (want vdd, rs, nr, rlg, tc or tfl)", *appName)
	}

	var rec *trace.Recorder
	if *traceOut != "" || *eventsOut != "" || *metricsOut != "" {
		rec = trace.NewRecorder()
	}
	var col *metrics.Collector
	if *metricsOut != "" {
		var rules *metrics.RuleSet
		if *rulesPath != "" {
			data, err := os.ReadFile(*rulesPath)
			if err != nil {
				log.Fatalf("reading rules: %v", err)
			}
			if rules, err = metrics.ParseRules(data); err != nil {
				log.Fatal(err)
			}
		}
		col, err = metrics.NewCollector(metrics.Config{Window: *metricsWin, Topo: topo, Rules: rules})
		if err != nil {
			log.Fatal(err)
		}
		col.Attach(rec)
	} else if *rulesPath != "" {
		log.Fatal("-rules needs -metrics (rules evaluate against the live series)")
	}
	s := bench.Scale{
		Vertices: g.NumVertices(), Levels: *levels, Machines: topo.NumMachines(),
		Seed: *seed, Workers: *workers, Trace: rec,
		Failures: failures, Heartbeat: *heartbeat, Faults: faults,
	}
	d, err := bench.NewDeploymentFor(s, topo, g)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("graph: %d vertices, %d edges; cluster: %s; app: %s (%d iteration(s))\n",
		g.NumVertices(), g.NumEdges(), topo, app.Name(), app.Iterations())
	switch *primitive {
	case "propagation":
		lvl := parseOpt(*optLevel)
		m, err := d.RunApp(app, lvl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("primitive: propagation (%v)\n", lvl)
		printMetrics(m.ResponseSeconds, m.MachineSeconds, m.NetworkBytes, m.DiskBytes)
		printElastic(m)
	case "mapreduce":
		m, err := d.RunAppMR(app)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("primitive: mapreduce")
		printMetrics(m.ResponseSeconds, m.MachineSeconds, m.NetworkBytes, m.DiskBytes)
		printElastic(m)
	default:
		log.Fatalf("unknown primitive %q", *primitive)
	}
	if *metricsOut != "" {
		// Finish seals the remaining windows — final alert transitions are
		// emitted here, so it must precede the trace/event writers.
		set := col.Finish()
		if err := writeSeries(*metricsOut, set); err != nil {
			log.Fatalf("writing metrics: %v", err)
		}
		fired := 0
		for _, al := range col.Alerts() {
			if !al.Resolved {
				fired++
			}
		}
		fmt.Printf("metrics:            %s (%d series × %d windows, %d alert(s) fired)\n",
			*metricsOut, len(set.Series), set.Windows, fired)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, rec); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		fmt.Printf("trace:              %s (%d events)\n", *traceOut, rec.Len())
	}
	if *eventsOut != "" {
		if err := writeEvents(*eventsOut, rec, topo); err != nil {
			log.Fatalf("writing events: %v", err)
		}
		fmt.Printf("events:             %s (%d events)\n", *eventsOut, rec.Len())
	}
}

func writeSeries(path string, set *metrics.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.WriteSet(f, set); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseFailures decodes the -fail flag: a comma-separated list of
// machine@time entries, each scheduling a permanent machine death at a
// virtual time.
func parseFailures(spec string) ([]engine.Failure, error) {
	if spec == "" {
		return nil, nil
	}
	var out []engine.Failure
	for _, entry := range strings.Split(spec, ",") {
		mStr, tStr, ok := strings.Cut(strings.TrimSpace(entry), "@")
		if !ok {
			return nil, fmt.Errorf("bad -fail entry %q (want machine@time, e.g. 2@1.5)", entry)
		}
		m, err := strconv.Atoi(mStr)
		if err != nil {
			return nil, fmt.Errorf("bad machine in -fail entry %q: %v", entry, err)
		}
		at, err := strconv.ParseFloat(tStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad time in -fail entry %q: %v", entry, err)
		}
		out = append(out, engine.Failure{Machine: cluster.MachineID(m), At: at})
	}
	return out, nil
}

func writeTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, rec.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeEvents(path string, rec *trace.Recorder, topo *cluster.Topology) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	ti := &trace.TopoInfo{Name: topo.Name(), Machines: topo.NumMachines(), Bandwidth: topo.BandwidthMatrix()}
	if err := trace.WriteEvents(f, ti, rec.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func findApp(name string) apps.App {
	for _, a := range apps.All() {
		if strings.EqualFold(a.Name(), name) {
			return a
		}
	}
	switch strings.ToLower(name) {
	case "cc":
		return apps.NewCC(50)
	case "sssp":
		return apps.NewSSSP(0, 100)
	}
	return nil
}

func parseOpt(s string) bench.OptLevel {
	switch strings.ToLower(s) {
	case "o1":
		return bench.O1
	case "o2":
		return bench.O2
	case "o3":
		return bench.O3
	case "o4":
		return bench.O4
	default:
		log.Fatalf("unknown optimization level %q (want o1..o4)", s)
		return bench.O1
	}
}

func printMetrics(resp, machine float64, net, disk int64) {
	fmt.Printf("response time:      %.4f s\n", resp)
	fmt.Printf("total machine time: %.4f s\n", machine)
	fmt.Printf("network I/O:        %.2f MB\n", float64(net)/1e6)
	fmt.Printf("disk I/O:           %.2f MB\n", float64(disk)/1e6)
}

// printElastic reports membership changes and live migrations, only when the
// run actually had any (the common fault-free run stays four lines).
func printElastic(m engine.Metrics) {
	if m.Joins == 0 && m.Drains == 0 && m.Migrations == 0 {
		return
	}
	fmt.Printf("elasticity:         %d join(s), %d drain(s), %d migration(s) (%.2f MB)\n",
		m.Joins, m.Drains, m.Migrations, float64(m.MigrationBytes)/1e6)
}
