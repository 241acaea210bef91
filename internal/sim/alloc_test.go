package sim

import (
	"fmt"
	"testing"
)

// The zero-allocation invariant (see queue.go): steady-state scheduling
// must not allocate. These tests are the regression gate behind `make
// bench-smoke`; if a change reintroduces per-event allocation (a
// pointer-boxed heap, a closure per wake-up), they fail.

// TestAtRunZeroAlloc drives timed events (value-heap path) through a
// warmed kernel and asserts At+Run allocate nothing.
func TestAtRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	k := NewKernel()
	fn := func() {}
	// Warm-up: grow the heap slice past anything the measured runs need.
	for i := 0; i < 4096; i++ {
		k.At(Time(i%13+1), fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 512; i++ {
			k.At(Time(i%13+1), fn)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("At+Run (timed): %.2f allocs per 512-event cycle, want 0", avg)
	}
}

// TestZeroDelayZeroAlloc drives same-instant events (FIFO-ring path,
// the Spawn/Wake/Yield shape) and asserts zero allocations.
func TestZeroDelayZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	k := NewKernel()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n%512 != 0 {
			k.At(0, chain)
		}
	}
	// Warm-up grows the ring.
	k.At(0, chain)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		k.At(0, chain)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("At+Run (zero-delay): %.2f allocs per 512-event cycle, want 0", avg)
	}
}

// switchKernel builds a kernel whose threads each call body once: a
// single-lane kernel with one thread, or (lanes) two lanes run by two
// workers with one thread each, so lane windows execute in parallel and
// a worker goroutine resumes a coroutine. body receives the thread and
// whether it is the first one.
func switchKernel(lanes bool, body func(th *Thread, first bool)) *Kernel {
	k := NewKernel()
	if !lanes {
		k.Spawn("switcher", func(th *Thread) { body(th, true) })
		return k
	}
	k.ConfigureLanes(2, 2, 100)
	for i, ln := range k.Lanes() {
		first := i == 0
		k.SpawnOn(ln, fmt.Sprintf("switcher%d", i), func(th *Thread) { body(th, first) })
	}
	return k
}

// TestThreadSwitchZeroAlloc asserts that a kernel-thread-kernel round
// trip (Sleep) allocates nothing in steady state, single-lane and on a
// 2-worker lane kernel. The measurement runs inside the first thread, so
// it spans the switches themselves plus the lane rounds between them.
func TestThreadSwitchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const switches, runs = 512, 50
	for _, lanes := range []bool{false, true} {
		var avg float64
		k := switchKernel(lanes, func(th *Thread, first bool) {
			sleeps := func() {
				for i := 0; i < switches; i++ {
					th.Sleep(1)
				}
			}
			if !first {
				// Keep pace with the measuring thread: AllocsPerRun
				// calls sleeps once to warm up, then runs times.
				for i := 0; i <= runs; i++ {
					sleeps()
				}
				return
			}
			avg = testing.AllocsPerRun(runs, sleeps)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if avg != 0 {
			t.Fatalf("lanes=%v: %.2f allocs per %d thread switches, want 0", lanes, avg, switches)
		}
	}
}

// BenchmarkThreadSwitch measures one kernel -> thread -> kernel round
// trip (a Sleep) on a single-lane kernel.
func BenchmarkThreadSwitch(b *testing.B) {
	benchSwitch(b, false)
}

// BenchmarkThreadSwitchLanes measures the same round trip on a 2-lane,
// 2-worker kernel: one op is one Sleep on each lane, the two lanes'
// windows running in parallel.
func BenchmarkThreadSwitchLanes(b *testing.B) {
	benchSwitch(b, true)
}

func benchSwitch(b *testing.B, lanes bool) {
	b.ReportAllocs()
	k := switchKernel(lanes, func(th *Thread, _ bool) {
		for i := 0; i < b.N; i++ {
			th.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestThreadSwitchConstantAlloc asserts the closure-free thread path:
// allocations for a spawn-sleep-finish lifecycle are a fixed overhead
// (thread struct, coroutine) independent of how many sleeps —
// i.e. kernel-thread transfers — the thread performs. Before the typed
// thread-target events, every Sleep/Yield/Wake allocated a closure.
func TestThreadSwitchConstantAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	measure := func(sleeps int) float64 {
		return testing.AllocsPerRun(10, func() {
			k := NewKernel()
			k.Spawn("w", func(th *Thread) {
				for i := 0; i < sleeps; i++ {
					th.Sleep(1)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(64), measure(2048)
	if large > small+8 {
		t.Fatalf("allocs grow with transfer count: %.1f at 64 sleeps vs %.1f at 2048", small, large)
	}
}
