package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/armci"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The Fig 9 load-balance-counter kernel at 4096 ranks: every rank but 0
// fetch-and-adds a counter on rank 0, which sits idle. About 80% of its
// host time is world set-up (rank spawn plus the O(p^2) region exchange
// of the first collective Malloc), so it is where O(p) worlds and lane
// engine scaling would show.
const (
	fig9Procs   = 4096
	fig9PerNode = 16
	fig9OpsEach = 2
	fig9Shards  = 2 // lane workers, one per core of the reference host
)

// fig9Ref is the simulated mean fetch-and-add latency (us) the
// simulator computed for this configuration when the benchmark was
// written, by mode (true: Async Thread). Simulation is deterministic, so
// any other value is a change in simulated behaviour.
var fig9Ref = map[bool]float64{false: 3508.318603540904, true: 3508.0166194139197}

// modeOrder is the order a pass runs the two progress modes in, drawn
// from the seed: the simulated inputs are the paper's fixed
// configuration (their results are checked against recorded values), so
// the seed only varies the host-side order of the runs.
func modeOrder(rng *rand.Rand) [2]bool {
	if rng.Intn(2) == 0 {
		return [2]bool{false, true}
	}
	return [2]bool{true, false}
}

// worldTimes are host instants inside one simulation: the NewWorld
// call, the last rank entering its body (spawned and past the start-up
// barrier), and the last rank returning from the first collective
// Malloc.
type worldTimes struct {
	start, spawned, setup time.Time
}

// lastOf records the host time at which the n-th and final caller
// arrives; ranks run concurrently on lane workers, so it is atomic.
type lastOf struct {
	want  int64
	n, at atomic.Int64
}

func (l *lastOf) arrive() bool {
	if l.n.Add(1) == l.want {
		l.at.Store(time.Now().UnixNano())
		return true
	}
	return false
}

func (l *lastOf) time() time.Time { return time.Unix(0, l.at.Load()) }

// layerCounts maps a run's obs registry onto per-layer metric names.
func layerCounts(reg *obs.Registry) (map[string]float64, float64, error) {
	sums, ops, err := obsSums(reg)
	if err != nil {
		return nil, 0, err
	}
	c := map[string]float64{
		"sim.events":            sums["sim/events"],
		"sim.rounds":            sums["sim/rounds"],
		"sim.boundary_ops":      sums["sim/boundary_ops"],
		"pami.ams_served":       sums["pami/ctx.ams_served"],
		"pami.ctx_advances":     sums["pami/ctx.advances"],
		"pami.lock_contended":   sums["pami/ctx.lock.contended"],
		"network.messages":      sums["network/messages"],
		"network.payload_bytes": sums["network/payload_bytes"],
	}
	for _, op := range armciOps {
		c["armci.ops."+op] = ops[op]
	}
	return c, sums["sim/serial_permille"], nil
}

// traceRegistry is the obs registry a traced simulation records into.
// Counters are what the benchmark reads; the trace rings stay shallow
// so tracing a 4096-rank world does not multiply its memory.
func traceRegistry() *obs.Registry { return obs.New(obs.WithTrackCap(16)) }

// fig9Once builds and runs one Fig 9 world and returns its simulated
// mean latency. reg, when non-nil, instruments every layer.
func fig9Once(async bool, reg *obs.Registry) (float64, worldTimes, float64, time.Duration, error) {
	var t worldTimes
	var heapMB float64
	spawned := &lastOf{want: fig9Procs}
	mallocked := &lastOf{want: fig9Procs}
	latSum := make([]sim.Time, fig9Procs)

	t.start = time.Now()
	k := sim.NewKernel()
	w, err := armci.NewWorld(k, armci.Config{Procs: fig9Procs, ProcsPerNode: fig9PerNode,
		AsyncThread: async, Shards: fig9Shards, Obs: reg})
	if err != nil {
		return 0, t, 0, 0, err
	}
	w.Start(func(th *sim.Thread, rt *armci.Runtime) {
		spawned.arrive()
		a := rt.Malloc(th, 16) // rank 0 layout: the counter, then the done tally
		if mallocked.arrive() && reg != nil {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapMB = float64(ms.HeapAlloc) / (1 << 20)
		}
		done := a.At(0).Add(8)
		if rt.Rank == 0 {
			for rt.Space().GetInt64(done.Addr) < int64(fig9Procs-1) {
				th.Sleep(sim.Microsecond)
				if !async {
					rt.Progress(th)
				}
			}
			return
		}
		for i := 0; i < fig9OpsEach; i++ {
			t0 := th.Now()
			rt.FetchAdd(th, a.At(0), 1)
			latSum[rt.Rank] += th.Now() - t0
		}
		rt.FetchAdd(th, done, 1)
	})
	r0 := time.Now()
	err = k.Run()
	run := time.Since(r0)
	w.M.Net.FoldLaneStats()
	if err != nil {
		return 0, t, 0, 0, err
	}
	t.spawned, t.setup = spawned.time(), mallocked.time()
	var total sim.Time
	for _, s := range latSum {
		total += s
	}
	return sim.ToMicros(total) / float64((fig9Procs-1)*fig9OpsEach), t, heapMB, run, nil
}

// simAcc accumulates what the simulation workloads report.
type simAcc struct {
	setups, passes  []float64          // host seconds per world set-up and per untraced pass
	traced          int                // traced passes
	counts          map[string]float64 // layer counters summed over traced passes
	permil          []float64          // sim/serial_permille per traced simulation
	heapMB          []float64          // heap in use after set-up, per traced fig9 world
	runSecs, events float64            // host seconds and events inside traced simulations
}

func newSimAcc() *simAcc { return &simAcc{counts: map[string]float64{}} }

func (a *simAcc) addTraced(reg *obs.Registry, heapMB, runSecs float64) error {
	c, permil, err := layerCounts(reg)
	if err != nil {
		return err
	}
	for k, v := range c {
		a.counts[k] += v
	}
	a.permil = append(a.permil, permil)
	if heapMB > 0 {
		a.heapMB = append(a.heapMB, heapMB)
	}
	a.runSecs += runSecs
	a.events += c["sim.events"]
	return nil
}

// report fills the end-to-end metrics and, for a traced run, the
// per-layer counters (per pass) the simulation workloads share.
func (a *simAcc) report(r *runner, opsPerPass float64) {
	var total float64
	for _, p := range a.passes {
		total += p
	}
	wall := median(a.passes)
	r.e2e.set("setup_s", median(a.setups), "s")
	r.e2e.set("wall_s", wall, "s")
	r.e2e.set("req_per_s", opsPerPass*float64(len(a.passes))/total, "1/s")
	r.e2e.set("latency_p50_ms", 1e3*wall, "ms")
	t := tailPercentile(a.passes)
	r.e2e.set("latency_p99_ms", 1e3*t.Value, "ms")
	r.note("%d passes, %d world set-ups; a request is one pass; latency tail is p%.4g of %d",
		len(a.passes), len(a.setups), t.Pct, t.N)
	if a.traced == 0 {
		return
	}
	for k, v := range a.counts {
		r.layer.set(k, v/float64(a.traced), unitOf(k))
	}
	r.layer.set("sim.serial_permille", median(a.permil), "permille")
	r.layer.set("armci.heap_after_setup_mb", median(a.heapMB), "MB")
	if a.events > 0 {
		r.layer.set("sim.ns_per_event", 1e9*a.runSecs/a.events, "ns")
	}
}

// unitOf returns a per-layer metric's unit from the perLayer list.
func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("hostbench: metric " + name + " is not in the perLayer list")
}

func runFig9(r *runner) error {
	rng := rand.New(rand.NewSource(r.seed))
	acc := newSimAcc()
	for i := 0; r.more(i); i++ {
		order := modeOrder(rng)
		d, err := r.unit(i, func(tr *tracer) (time.Duration, error) {
			pass := tr.begin("fig9.pass", 0)
			defer tr.end(pass)
			var took time.Duration
			for _, async := range order {
				var reg *obs.Registry
				if tr != nil {
					reg = traceRegistry()
				}
				if err := r.collect(tr); err != nil {
					return 0, err
				}
				lat, t, heapMB, run, err := fig9Once(async, reg)
				if err != nil {
					return 0, err
				}
				end := time.Now()
				took += end.Sub(t.start)
				r.check(lat == fig9Ref[async], "fig9_p4096 async=%v mean latency %v us, reference %v us",
					async, lat, fig9Ref[async])
				if tr == nil {
					acc.setups = append(acc.setups, t.setup.Sub(t.start).Seconds())
				}
				tr.add("armci.setup", pass, t.start, t.spawned)
				tr.add("armci.malloc", pass, t.spawned, t.setup)
				tr.add("sim.run", pass, end.Add(-run), end)
				if reg != nil {
					if err := acc.addTraced(reg, heapMB, run.Seconds()); err != nil {
						return 0, err
					}
				}
			}
			return took, nil
		})
		if err != nil {
			return err
		}
		if r.tracedUnit(i) {
			acc.traced++
		} else {
			acc.passes = append(acc.passes, d.Seconds())
		}
	}
	if len(acc.passes) == 0 {
		return fmt.Errorf("no untraced pass completed")
	}
	acc.report(r, 2*float64((fig9Procs-1)*(fig9OpsEach+1)))
	if r.traced {
		r.layer.set("armci.setup_s", median(r.tr.durations("armci.setup")), "s")
		r.layer.set("armci.malloc_s", median(r.tr.durations("armci.malloc")), "s")
		r.layer.set("sim.run_s", median(r.tr.durations("sim.run")), "s")
	}
	return nil
}
