package repro

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// shardGoldenRun executes the golden workload at one lane worker count
// and captures everything a shard count could conceivably perturb: the
// kernel's event count and final virtual time, the full metrics dump,
// and the Chrome trace bytes.
func shardGoldenRun(t *testing.T, shards int) (events uint64, final sim.Time, metrics, trace string) {
	t.Helper()
	reg := obs.New(obs.WithTrackCap(256))
	w := goldenScenarioSharded(shards, reg)
	var mbuf, tbuf bytes.Buffer
	if err := reg.WriteMetrics(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteChromeTrace(&tbuf); err != nil {
		t.Fatal(err)
	}
	return w.K.EventsFired(), w.K.Now(), mbuf.String(), tbuf.String()
}

// TestShardCountInvariance is the determinism contract of the intra-run
// lane engine: Config.Shards only sets how many host goroutines execute
// the lanes, never which events fire or when, so event counts, final
// virtual time, metrics bytes, and trace bytes are identical at shards
// 1, 2, and 4. (On the lane engine this holds by construction — the
// window schedule is computed from lane state, not from which worker
// executes a lane — and this test is the tripwire for that property.)
func TestShardCountInvariance(t *testing.T) {
	e0, f0, m0, tr0 := shardGoldenRun(t, 0)
	for _, shards := range []int{1, 2, 4} {
		e, f, m, tr := shardGoldenRun(t, shards)
		if e != e0 || f != f0 {
			t.Errorf("shards=%d diverged: events/final (%d, %d), want (%d, %d)",
				shards, e, f, e0, f0)
		}
		if m != m0 {
			t.Errorf("shards=%d metrics bytes differ from shards=0", shards)
		}
		if tr != tr0 {
			t.Errorf("shards=%d trace bytes differ from shards=0", shards)
		}
	}
}

// TestShardChaosInvariance extends the invariance contract to the fault
// injector: retries, timeouts, drops, duplicates, and the recovered data
// itself are identical at every shard count, because fault verdicts are
// drawn in the serial boundary phase in deterministic order.
func TestShardChaosInvariance(t *testing.T) {
	base := bench.ChaosRun(&sweep.Ctx{Pool: armci.NewPool()}, 8, 4, 10, 42)
	if !base.Clean() {
		t.Fatalf("chaos run corrupted data: %+v", base)
	}
	for _, shards := range []int{1, 2, 4} {
		r := bench.ChaosRun(&sweep.Ctx{Shards: shards, Pool: armci.NewPool()}, 8, 4, 10, 42)
		if r != base {
			t.Errorf("shards=%d chaos result diverged:\n got %+v\nwant %+v", shards, r, base)
		}
	}
}

// TestLegacyEngineEquivalence is the equivalence proof that accompanies
// the golden re-pin of this PR: the legacy single-queue engine
// (Shards=-1) and the lane engine (Shards>=0) interleave host-side
// bookkeeping differently — so raw event counts and the exact final
// virtual time moved and the goldens were re-pinned — but every
// simulated outcome agrees: per-op stats aggregates, network traffic
// totals, rendered figure bytes, and the chaos run's entire recovery
// story.
func TestLegacyEngineEquivalence(t *testing.T) {
	legacy := goldenScenarioSharded(-1, obs.New(obs.WithTrackCap(256)))
	laned := goldenScenarioSharded(0, obs.New(obs.WithTrackCap(256)))

	ls, ns := legacy.AggregateStatsSorted(), laned.AggregateStatsSorted()
	if len(ls) != len(ns) {
		t.Fatalf("stat sets differ: legacy %d entries, laned %d", len(ls), len(ns))
	}
	for i := range ls {
		if ls[i] != ns[i] {
			t.Errorf("stat %q: legacy %d, laned %d", ls[i].Name, ls[i].Value, ns[i].Value)
		}
	}
	ln, nn := legacy.M.Net, laned.M.Net
	if ln.Messages != nn.Messages || ln.Bytes != nn.Bytes ||
		ln.RawBytes != nn.RawBytes || ln.HopsTotal != nn.HopsTotal {
		t.Errorf("network totals differ: legacy {msgs %d bytes %d raw %d hops %d}, laned {msgs %d bytes %d raw %d hops %d}",
			ln.Messages, ln.Bytes, ln.RawBytes, ln.HopsTotal,
			nn.Messages, nn.Bytes, nn.RawBytes, nn.HopsTotal)
	}

	// Figure bytes: the rendered CSVs must agree between engines (the
	// simulated latencies are what the figures pin).
	legacyEng := sweep.NewSharded(0, -1, nil)
	legacyFig3 := csvHash(bench.Fig3(bg, legacyEng, []int{16, 256, 4096}, 3))
	legacyFig9 := csvHash(bench.Fig9(bg, legacyEng, []int{8, 16}, 4))
	if h := csvHash(bench.Fig3(bg, newEngine(), []int{16, 256, 4096}, 3)); h != legacyFig3 {
		t.Errorf("fig3 CSV differs between engines: legacy %s, laned %s", legacyFig3, h)
	}
	if h := csvHash(bench.Fig9(bg, newEngine(), []int{8, 16}, 4)); h != legacyFig9 {
		t.Errorf("fig9 CSV differs between engines: legacy %s, laned %s", legacyFig9, h)
	}

	// Chaos: identical recovery outcome, event schedule aside. Beyond
	// the event/time fields, DupsSeen is also schedule-dependent: the
	// injector draws per-message verdicts in event order, so the two
	// engines assign the same number of duplications to (possibly)
	// different messages — a duplicate landing on an AM request is
	// counted as suppressed, one landing on an idempotent put or a
	// retired reply is silently absorbed. The integrity fields (Counter,
	// AccSum, BadBlocks, OpErrors) and the fault totals must agree
	// exactly.
	cl := bench.ChaosRun(&sweep.Ctx{Shards: -1, Pool: armci.NewPool()}, 8, 4, 10, 42)
	cn := bench.ChaosRun(&sweep.Ctx{Pool: armci.NewPool()}, 8, 4, 10, 42)
	if !cl.Clean() || !cn.Clean() {
		t.Errorf("chaos run corrupted data: legacy %+v, laned %+v", cl, cn)
	}
	cl.EventsFired, cn.EventsFired = 0, 0
	cl.FinalVirtual, cn.FinalVirtual = 0, 0
	cl.DupsSeen, cn.DupsSeen = 0, 0
	if cl != cn {
		t.Errorf("chaos outcome differs between engines:\nlegacy %+v\n laned %+v", cl, cn)
	}
}

// TestShardedRunRace drives genuinely concurrent lane execution — two
// sharded worlds running at once, one of them under fault injection —
// so `go test -race` proves the lane pool, the boundary applier, the
// cross-lane deposit path, and the per-lane obs children share nothing
// unsynchronized. (Modeled on parallel_test.go, which proves the same
// for whole-world parallelism.)
func TestShardedRunRace(t *testing.T) {
	wantE, wantF, _, _ := shardGoldenRun(t, 0)
	wantChaos := bench.ChaosRun(&sweep.Ctx{Pool: armci.NewPool()}, 8, 4, 6, 42)

	var wg sync.WaitGroup
	var e uint64
	var f sim.Time
	var chaos bench.ChaosResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		w := goldenScenarioSharded(4, obs.New(obs.WithTrackCap(256)))
		e, f = w.K.EventsFired(), w.K.Now()
	}()
	go func() {
		defer wg.Done()
		chaos = bench.ChaosRun(&sweep.Ctx{Shards: 4, Pool: armci.NewPool()}, 8, 4, 6, 42)
	}()
	wg.Wait()

	if e != wantE || f != wantF {
		t.Errorf("sharded golden run diverged under concurrency: got (%d, %d), want (%d, %d)",
			e, f, wantE, wantF)
	}
	if chaos != wantChaos {
		t.Errorf("sharded chaos run diverged under concurrency:\n got %+v\nwant %+v", chaos, wantChaos)
	}
}
