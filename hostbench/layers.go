package main

// layers.go is the traced run's instrumentation: spans the benchmark
// records around its own calls into the repository's public functions,
// host runtime counters, obs registry sums, the CPU profile, and the
// process's peak resident memory.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call: Parent is the ID of the span that caused it
// (0 for none); spans of one request or one pass share a Parent.
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration // since the tracer started
	End    time.Duration
}

// tracer keeps spans in memory; write emits them once the run ends. A
// nil *tracer records nothing, which is how untraced units run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// begin opens a span that end closes, for a parent whose children are
// recorded before it finishes.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0)
}

// durations returns the durations of every span named name, in seconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// write emits the spans as Chrome trace_event JSON (loadable in
// Perfetto), one complete event per span with its ID and parent.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}

// hostSample is a snapshot of the Go runtime's cumulative counters.
type hostSample struct {
	numGC       uint32
	pauseNs     uint64
	mallocs     uint64
	totalAlloc  uint64
	gcCPU, cpus float64 // cpu-seconds: GC total, everything
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	h := hostSample{numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		h.cpus = s[1].Value.Float64()
	}
	return h
}

// hostDelta accumulates runtime counter deltas over the sampled parts
// of traced units.
type hostDelta struct {
	units               int // traced units, each sampled in one or more parts
	gcCycles, pauseNs   float64
	mallocs, allocBytes float64
	gcCPU, totalCPU     float64
}

func (d *hostDelta) add(a, b hostSample) {
	d.gcCycles += float64(b.numGC - a.numGC)
	d.pauseNs += float64(b.pauseNs - a.pauseNs)
	d.mallocs += float64(b.mallocs - a.mallocs)
	d.allocBytes += float64(b.totalAlloc - a.totalAlloc)
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.cpus - a.cpus
}

// report adds the host runtime metrics, per traced unit of work.
func (d *hostDelta) report(m metricSet) {
	n := float64(d.units)
	if n == 0 {
		n = 1
	}
	m.set("gc.cycles", d.gcCycles/n, "count")
	m.set("gc.pause_ms", d.pauseNs/n/1e6, "ms")
	frac := 0.0
	if d.totalCPU > 0 {
		frac = d.gcCPU / d.totalCPU
	}
	m.set("gc.cpu_fraction", frac, "fraction")
	m.set("heap.allocs", d.mallocs/n, "count")
	m.set("heap.alloc_mb", d.allocBytes/n/(1<<20), "MB")
}

// profiler accumulates CPU samples from the traced units, folded by
// layer.
type profiler struct {
	buf    bytes.Buffer
	shares map[string]int64
}

func newProfiler() *profiler { return &profiler{shares: map[string]int64{}} }

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return foldProfile(p.buf.Bytes(), p.shares)
}

// report adds one cpu.<layer> share (percent of sampled CPU time) per
// layer.
func (p *profiler) report(m metricSet) {
	var total int64
	for _, v := range p.shares {
		total += v
	}
	for _, l := range cpuLayers {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(p.shares[l]) / float64(total)
		}
		m.set("cpu."+l, pct, "%")
	}
}

// obsSums reads a registry's counters and gauges, summed over label
// sets ("pami/ctx.advances{rank=3,ctx=1}" adds into "pami/ctx.advances"),
// and armci's blocking-op counts summed over size classes, by op.
func obsSums(r *obs.Registry) (sums, ops map[string]float64, err error) {
	var buf bytes.Buffer
	if err := r.SnapshotJSON(&buf); err != nil {
		return nil, nil, err
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		return nil, nil, fmt.Errorf("obs snapshot: %w", err)
	}
	sums, ops = map[string]float64{}, map[string]float64{}
	for _, part := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name, v := range part {
			base, labels, _ := strings.Cut(name, "{")
			sums[base] += float64(v)
			if op, ok := strings.CutPrefix(labels, "op="); ok && base == "armci/op.count" {
				op, _, _ = strings.Cut(op, ",")
				ops[op] += float64(v)
			}
		}
	}
	return sums, ops, nil
}

// armciOps are the op labels armci counts, reported as armci.ops.<op>.
var armciOps = []string{"get", "put", "acc", "rmw", "gets", "puts", "accs"}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
