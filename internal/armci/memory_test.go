package armci

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// worldHeapPerRank builds a Fig 9-style world (16 ranks per node, async
// thread), runs it through its first collective Malloc and returns the
// live heap the finished world holds, per rank.
func worldHeapPerRank(t *testing.T, procs int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := Run(Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}, func(th *sim.Thread, rt *Runtime) {
		rt.Malloc(th, 16)
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(procs)
}

// TestWorldSetupMemoryLinear: world memory is O(p), so the heap each
// rank costs must not grow with p. A dense per-peer layout costs about
// 4x more per rank at p=4096 than at p=1024.
func TestWorldSetupMemoryLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4096-rank world")
	}
	small := worldHeapPerRank(t, 1024)
	big := worldHeapPerRank(t, 4096)
	t.Logf("live heap per rank: %.0f B at p=1024, %.0f B at p=4096", small, big)
	if big > 1.5*small {
		t.Fatalf("heap per rank grows with p: %.0f B at p=4096 vs %.0f B at p=1024 (limit 1.5x)", big, small)
	}
}
