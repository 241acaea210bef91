package repro

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// goldenScenarioTuned is goldenScenarioSharded with the remaining lane
// execution knobs explicit: the lane-group grain and the serial-boundary
// oracle. Like the shard count, neither may change a simulated byte.
func goldenScenarioTuned(shards, laneGroup int, serialBoundary bool, reg *obs.Registry) *armci.World {
	const procs = 24
	cfg := armci.Config{
		Procs: procs, ProcsPerNode: 4, AsyncThread: true,
		Seed: 7, Obs: reg, Shards: shards,
		LaneGroup: laneGroup, SerialBoundary: serialBoundary,
	}
	w := armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, 4096)
		local := rt.LocalAlloc(th, 4096)
		peer := (rt.Rank + 1) % procs
		for i := 0; i < 4; i++ {
			rt.Put(th, local, a.At(peer), 256)
			rt.Get(th, a.At(peer), local, 512)
			rt.FetchAdd(th, a.At(0), 1)
			rt.Acc(th, local, a.At(peer).Add(512), 64, 2.0)
		}
		rt.Fence(th, peer)
		rt.Barrier(th)
	})
	return w
}

// tunedGoldenRun captures everything a lane execution knob could
// conceivably perturb (the shardGoldenRun capture set).
func tunedGoldenRun(t *testing.T, shards, laneGroup int, serialBoundary bool) (events uint64, final sim.Time, metrics, trace string) {
	t.Helper()
	reg := obs.New(obs.WithTrackCap(256))
	w := goldenScenarioTuned(shards, laneGroup, serialBoundary, reg)
	var mbuf, tbuf bytes.Buffer
	if err := reg.WriteMetrics(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteChromeTrace(&tbuf); err != nil {
		t.Fatal(err)
	}
	return w.K.EventsFired(), w.K.Now(), mbuf.String(), tbuf.String()
}

var laneMatrix = []struct{ shards, group int }{
	{1, 1}, {1, 4}, {1, 16},
	{2, 1}, {2, 4}, {2, 16},
	{4, 1}, {4, 4}, {4, 16},
}

// TestShardLaneGroupMatrix is the full execution-knob invariance matrix
// over the golden scenario: every {1,2,4} shard × {1,4,16} lane-group
// combination must reproduce the serial run's event count, final
// virtual time, metrics bytes, and trace bytes exactly. The lane-group
// grain only changes how runnable lanes are chunked onto workers —
// horizons and boundary order stay per-lane — so, like the worker
// count, it cannot touch a simulated byte.
func TestShardLaneGroupMatrix(t *testing.T) {
	e0, f0, m0, tr0 := tunedGoldenRun(t, 1, 1, false)
	for _, mx := range laneMatrix {
		e, f, m, tr := tunedGoldenRun(t, mx.shards, mx.group, false)
		if e != e0 || f != f0 {
			t.Errorf("shards=%d group=%d diverged: events/final (%d, %d), want (%d, %d)",
				mx.shards, mx.group, e, f, e0, f0)
		}
		if m != m0 {
			t.Errorf("shards=%d group=%d: metrics bytes differ", mx.shards, mx.group)
		}
		if tr != tr0 {
			t.Errorf("shards=%d group=%d: trace bytes differ", mx.shards, mx.group)
		}
	}
}

// TestFig9LaneGroupMatrix runs the same matrix over the paper's Fig. 9
// fetch-and-add workload: the measured mean latency is a pure function
// of the simulation, so it must be bit-equal at every setting.
func TestFig9LaneGroupMatrix(t *testing.T) {
	base := bench.Fig9Point(&sweep.Ctx{Shards: 1, LaneGroup: 1, Pool: armci.NewPool()}, 16, 4, true, false, 4)
	for _, mx := range laneMatrix {
		got := bench.Fig9Point(&sweep.Ctx{Shards: mx.shards, LaneGroup: mx.group, Pool: armci.NewPool()}, 16, 4, true, false, 4)
		if got != base {
			t.Errorf("fig9 shards=%d group=%d: latency %v, want %v",
				mx.shards, mx.group, got, base)
		}
	}
}

// TestChaosLaneGroupMatrix extends the matrix to fault injection: the
// recovery story (retries, timeouts, drops, recovered data) must be
// identical at every shard × lane-group setting, because fault verdicts
// are drawn in the serial boundary phase in canonical order.
func TestChaosLaneGroupMatrix(t *testing.T) {
	base := bench.ChaosRun(&sweep.Ctx{Shards: 1, LaneGroup: 1, Pool: armci.NewPool()}, 8, 4, 10, 42)
	if !base.Clean() {
		t.Fatalf("chaos run corrupted data: %+v", base)
	}
	for _, mx := range laneMatrix {
		r := bench.ChaosRun(&sweep.Ctx{Shards: mx.shards, LaneGroup: mx.group, Pool: armci.NewPool()}, 8, 4, 10, 42)
		if r != base {
			t.Errorf("chaos shards=%d group=%d diverged:\n got %+v\nwant %+v",
				mx.shards, mx.group, r, base)
		}
	}
}

// composedMatrixSpec is a two-phase composition (an example pattern plus
// a faulted figure pattern) exercising the compose layer's whole
// fan-out under the matrix.
const composedMatrixSpec = `{"phases":[
	{"pattern":"halo","params":{"tiles_x":2,"tiles_y":1,"tile_n":8,"iters":3},
	 "topology":{"per_node":2},"engine":{"mode":"async"}},
	{"pattern":"fetchadd","params":{"ops_each":3},
	 "topology":{"procs":[4],"per_node":4},"engine":{"mode":"default"},
	 "fault":{"seed":7,"events":[
		{"kind":"link_down","start_us":30050,"dur_us":100},
		{"kind":"delay","start_us":30000,"dur_us":2000,"prob":0.1,"delay_us":5}]}}
]}`

func renderComposedTuned(t *testing.T, shards, laneGroup int, serialBoundary bool) []byte {
	t.Helper()
	sp, err := scenario.Parse(strings.NewReader(composedMatrixSpec))
	if err != nil {
		t.Fatal(err)
	}
	// CoreBudget caps shards at GOMAXPROCS; raise it for the test so the
	// shards=4 rows run on 4 lane workers on any host. No root test runs
	// in parallel, so the process-wide setting is safe to change.
	if shards > runtime.GOMAXPROCS(0) {
		prev := runtime.GOMAXPROCS(shards)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	eng := sweep.NewSharded(1, shards, nil)
	if eng.Shards() != shards {
		t.Fatalf("engine runs %d lane workers, want %d", eng.Shards(), shards)
	}
	eng.SetLaneGroup(laneGroup)
	eng.SetSerialBoundary(serialBoundary)
	res, err := scenario.Run(context.Background(), eng, sp)
	if err != nil {
		t.Fatalf("composed run (shards=%d group=%d): %v", shards, laneGroup, err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestComposedLaneGroupMatrix runs the matrix over a composed
// scenario-DSL spec, the path the serving layer caches under a content
// address: rendered bytes must be identical at every setting.
func TestComposedLaneGroupMatrix(t *testing.T) {
	base := renderComposedTuned(t, 1, 1, false)
	if len(base) == 0 {
		t.Fatal("empty artifact")
	}
	for _, mx := range laneMatrix {
		got := renderComposedTuned(t, mx.shards, mx.group, false)
		if !bytes.Equal(base, got) {
			t.Errorf("composed shards=%d group=%d: bytes differ", mx.shards, mx.group)
		}
	}
}

// TestBoundaryOracleEquivalence pins the staged parallel boundary
// against the serial k-way-merge oracle (Config.SerialBoundary): both
// paths must produce identical events, final time, metrics, and trace
// bytes — the serial path inserts each deposit directly in canonical
// order, the parallel path stages per destination lane and inserts
// concurrently, and per-lane staging order equals canonical order, so
// the destination's seq tie-breaks cannot differ.
func TestBoundaryOracleEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		eS, fS, mS, trS := tunedGoldenRun(t, shards, 1, true)
		eP, fP, mP, trP := tunedGoldenRun(t, shards, 1, false)
		if eS != eP || fS != fP {
			t.Errorf("shards=%d: oracle (%d, %d) vs parallel (%d, %d)", shards, eS, fS, eP, fP)
		}
		if mS != mP {
			t.Errorf("shards=%d: metrics bytes differ between boundary paths", shards)
		}
		if trS != trP {
			t.Errorf("shards=%d: trace bytes differ between boundary paths", shards)
		}
	}
	oracle := bench.ChaosRun(&sweep.Ctx{Shards: 4, LaneGroup: 1, SerialBoundary: true, Pool: armci.NewPool()}, 8, 4, 10, 42)
	staged := bench.ChaosRun(&sweep.Ctx{Shards: 4, LaneGroup: 1, Pool: armci.NewPool()}, 8, 4, 10, 42)
	if oracle != staged {
		t.Errorf("chaos boundary paths diverged:\noracle %+v\nstaged %+v", oracle, staged)
	}
	if composed := renderComposedTuned(t, 4, 4, true); !bytes.Equal(composed, renderComposedTuned(t, 4, 4, false)) {
		t.Error("composed boundary paths render different bytes")
	}
}
