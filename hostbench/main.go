// Command hostbench is the repository's same-host benchmark. It runs one
// seeded workload against the public APIs of armci, nwchem, sim,
// scenario and serve, checks every output, and prints the host
// wall-clock and memory figures a user of the system sees. With
// --trace 1 it instead prints per-layer figures: obs counters, spans
// around its own calls, runtime counters, and a CPU profile folded by
// layer. See README.md for the workloads and what each metric should
// move.
//
//	go build -o hostbench . && ./hostbench --workload scf_p256 --seed 3 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// The command exits 1 when any output differs from its reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/sweep"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a workload's reported figures by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// metricName is a reported figure's name and unit.
type metricName struct{ name, unit string }

// endToEnd lists the figures every untraced run reports; BENCHMARK.json
// lists the same ones.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// perLayer lists the figures every traced run reports. A layer a
// workload does not exercise reads 0 there; README.md says which
// workload each figure is meant for.
var perLayer = func() []metricName {
	out := []metricName{
		{"armci.setup_s", "s"}, {"armci.malloc_s", "s"}, {"armci.heap_after_setup_mb", "MB"},
	}
	for _, op := range armciOps {
		out = append(out, metricName{"armci.ops." + op, "count"})
	}
	out = append(out, []metricName{
		{"sim.events", "count"}, {"sim.run_s", "s"}, {"sim.ns_per_event", "ns"},
		{"sim.rounds", "count"}, {"sim.boundary_ops", "count"}, {"sim.serial_permille", "permille"},
		{"pami.ams_served", "count"}, {"pami.ctx_advances", "count"}, {"pami.lock_contended", "count"},
		{"network.messages", "count"}, {"network.payload_bytes", "bytes"},
		{"nwchem.tasks", "count"}, {"nwchem.experiment_s", "s"},
		{"scenario.canon_us", "us"},
	}...)
	for _, tier := range serveTiers {
		out = append(out, metricName{"serve.latency_ms." + tier, "ms"})
	}
	for _, tier := range serveTiers {
		out = append(out, metricName{"serve.count." + tier, "count"})
	}
	out = append(out, []metricName{
		{"serve.queue_depth_max", "count"}, {"serve.admission_rejects", "count"},
		{"serve.cache_evictions", "count"}, {"serve.store_entries", "count"},
		{"gc.cycles", "count"}, {"gc.pause_ms", "ms"}, {"gc.cpu_fraction", "fraction"},
		{"heap.allocs", "count"}, {"heap.alloc_mb", "MB"},
	}...)
	for _, l := range cpuLayers {
		out = append(out, metricName{"cpu." + l, "%"})
	}
	return append(out, metricName{"trace.overhead_pct", "%"})
}()

// workload is one named, seeded input set.
type workload struct {
	why string
	run func(r *runner) error
}

var workloads = map[string]workload{
	"fig9_p4096": {"world set-up dominates: 4096 ranks, O(p^2) region exchange, 256 lanes on 2 workers", runFig9},
	"scf_p256":   {"event kernel, thread switches, network, PAMI and GA dominate: 14706 SCF tasks at 256 ranks", runSCF},
	"serve_mix":  {"simd over loopback: Zipf-skewed run/compose jobs answered from LRU, disk store and cold runs", runServeMix},
}

// runner carries one run's settings and what its workload reports.
type runner struct {
	seed     int64
	deadline time.Time
	longest  time.Duration // slowest unit so far: a new unit must fit before the deadline
	traced   bool          // --trace 1: alternate untraced and traced units
	out      string        // directory for scratch state and span files

	tr   *tracer
	prof *profiler
	host hostDelta
	h0   hostSample // runtime counters when sampling last resumed

	attempted, failed int
	e2e, layer        metricSet
	notes             []string // extra summary lines (sample counts, tiers)
	untracedUnits     []float64
	tracedUnits       []float64
}

// more reports whether unit i may start: the first always does; later
// ones only when the slowest unit so far would still end by the
// deadline, so a run measures for at most about --seconds.
func (r *runner) more(i int) bool {
	return i == 0 || time.Now().Add(r.longest).Before(r.deadline)
}

// tracedUnit reports whether unit i is a traced one: in a traced run
// units alternate untraced, traced, untraced, ... so the two halves see
// the same warm-up and the difference is the tracing overhead.
func (r *runner) tracedUnit(i int) bool { return r.traced && i%2 == 1 }

// unit runs one unit of work, which returns its own measured host
// time (excluding any untimed housekeeping it does between its timed
// calls); under tracing the unit is also profiled and its runtime
// counter deltas recorded.
func (r *runner) unit(i int, fn func(tr *tracer) (time.Duration, error)) (time.Duration, error) {
	traced := r.tracedUnit(i)
	var tr *tracer
	if traced {
		tr = r.tr
		if err := r.resume(); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	d, err := fn(tr)
	if took := time.Since(t0); took > r.longest {
		r.longest = took
	}
	if traced {
		if perr := r.pause(); err == nil {
			err = perr
		}
		r.host.units++
		r.tracedUnits = append(r.tracedUnits, d.Seconds())
	} else {
		r.untracedUnits = append(r.untracedUnits, d.Seconds())
	}
	return d, err
}

// resume starts sampling a traced unit: the CPU profile and the runtime
// counters' starting point.
func (r *runner) resume() error {
	err := r.prof.start()
	r.h0 = readHost()
	return err
}

// pause stops sampling and adds what was sampled since resume; the
// profile is folded after the counters are read, so its allocations do
// not count.
func (r *runner) pause() error {
	h1 := readHost()
	err := r.prof.stop()
	r.host.add(r.h0, h1)
	return err
}

// collect forces a garbage collection between worlds, so a world is not
// built on top of the previous one's garbage. In a traced unit (tr not
// nil) sampling is paused around it: the per-layer GC, heap and CPU
// figures then hold the program's own collections, not this one.
func (r *runner) collect(tr *tracer) error {
	if tr == nil {
		runtime.GC()
		return nil
	}
	if err := r.pause(); err != nil {
		return err
	}
	runtime.GC()
	return r.resume()
}

// check counts one checked output.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "hostbench: MISMATCH: "+format+"\n", args...)
	}
}

func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload to run: fig9_p4096, scf_p256 or serve_mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "how long the run measures, in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch state (disk store) and span files")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: hostbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	// The GC posture of the repository's commands (the sweep engine sets
	// it for every one of them).
	sweep.TuneGC()

	r := &runner{seed: *seed, deadline: time.Now().Add(time.Duration(*seconds) * time.Second),
		traced: *traceFlag == 1, out: *out, e2e: metricSet{}, layer: metricSet{}}
	if r.traced {
		r.tr = newTracer()
		r.prof = newProfiler()
	}
	fmt.Printf("hostbench %s seed=%d seconds=%d trace=%d: %s\n", *name, *seed, *seconds, *traceFlag, w.why)
	if err := w.run(r); err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	rss, err := peakRSSMB()
	if err != nil {
		fatal(err)
	}
	r.e2e.set("peak_rss_mb", rss, "MB")

	metrics := r.e2e
	want := endToEnd
	if r.traced {
		r.host.report(r.layer)
		r.prof.report(r.layer)
		overhead := 0.0
		if u := median(r.untracedUnits); u > 0 && len(r.tracedUnits) > 0 {
			overhead = 100 * (median(r.tracedUnits)/u - 1)
		}
		r.layer.set("trace.overhead_pct", overhead, "%")
		r.note("tracing overhead %.1f%% per unit (%d traced vs %d untraced units)",
			overhead, len(r.tracedUnits), len(r.untracedUnits))
		if err := writeSpans(r, *name); err != nil {
			fatal(err)
		}
		metrics, want = r.layer, perLayer
	}
	for _, m := range want {
		if _, ok := metrics[m.name]; !ok {
			metrics.set(m.name, 0, m.unit) // layer not exercised by this workload
		}
	}

	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	errorRatio := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("  error_ratio %.6f (%d failed of %d attempted)\n", errorRatio, r.failed, r.attempted)
	for _, m := range want {
		fmt.Printf("  %-28s %14.6g %s\n", m.name, metrics[m.name].Value, m.unit)
	}
	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// writeSpans writes the traced run's spans, kept in memory until now.
func writeSpans(r *runner, name string) error {
	path := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.json", name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.tr.write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hostbench:", err)
	os.Exit(1)
}
