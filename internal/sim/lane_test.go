package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// pingPong runs a deterministic two-lane message exchange: each side
// sends `rounds` messages to the other with a fixed latency, replying on
// receipt. Returns (final time, events fired, sum of receive times).
func pingPong(t *testing.T, lanes, workers int, rounds int) (Time, uint64, Time) {
	t.Helper()
	const latency = Time(100)
	k := NewKernel()
	k.SetObs(obs.New())
	k.ConfigureLanes(lanes, workers, latency)

	var recvSum Time
	sums := make([]Time, lanes)
	for i := 0; i < lanes; i++ {
		ln := k.Lanes()[i]
		i := i
		k.SpawnOn(ln, fmt.Sprintf("rank%d", i), func(th *Thread) {
			for r := 0; r < rounds; r++ {
				th.Sleep(7)
				dst := k.Lanes()[(i+1)%lanes]
				at := th.Now()
				fn := func(opAt Time) {
					dst.ScheduleAbs(opAt+latency, func() {
						sums[dst.idx] += dst.Now()
					})
				}
				if dst == ln {
					ln.Defer(at+latency, fn)
				} else {
					ln.DeferRemote(at+latency, fn)
				}
				th.Sleep(13)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, s := range sums {
		recvSum += s
	}
	return k.Now(), k.EventsFired(), recvSum
}

func TestLanesDeterministicAcrossWorkers(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		base := [3]any{}
		for wi, workers := range []int{1, 2, 4} {
			final, fired, sum := pingPong(t, lanes, workers, 50)
			got := [3]any{final, fired, sum}
			if wi == 0 {
				base = got
				continue
			}
			if got != base {
				t.Fatalf("lanes=%d workers=%d: got %v, want %v", lanes, workers, got, base)
			}
		}
	}
}

// TestLanesSelfDeferCap exercises the dynamic window cap: a lane that
// sprints far ahead must still receive the return leg of its own
// deferred operation in its future.
func TestLanesSelfDeferCap(t *testing.T) {
	k := NewKernel()
	k.ConfigureLanes(2, 2, 10)
	a, b := k.Lanes()[0], k.Lanes()[1]
	hits := 0
	k.SpawnOn(a, "a", func(th *Thread) {
		// Send to b at +10; b replies at +10 more. Meanwhile keep busy far
		// past the reply time — without the Defer cap this would execute
		// events past the reply's arrival before it is applied.
		at := th.Now()
		a.DeferRemote(at+10, func(opAt Time) {
			b.ScheduleAbs(opAt+10, func() {
				bt := b.Now()
				b.DeferRemote(bt+10, func(op2 Time) {
					a.ScheduleAbs(op2+10, func() { hits++ })
				})
			})
		})
		for i := 0; i < 100; i++ {
			th.Sleep(1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if hits != 1 {
		t.Fatalf("reply not delivered: hits=%d", hits)
	}
}

// TestLanesDeadlock verifies a blocked thread on a lane still surfaces
// as a DeadlockError with its name.
func TestLanesDeadlock(t *testing.T) {
	k := NewKernel()
	k.ConfigureLanes(2, 1, 5)
	k.SpawnOn(k.Lanes()[1], "stuck", func(th *Thread) {
		th.Park()
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck(parked)" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

// panicOnLane is a named frame for TestLanesThreadPanicSurfaces to find
// in the reported stack.
func panicOnLane(th *Thread) {
	th.Sleep(5)
	// Hold the window in host time so both workers claim a lane: the
	// panicking coroutine is then resumed by a worker goroutine as well
	// as by the coordinator.
	time.Sleep(time.Millisecond)
	panic(th.Name)
}

// TestLanesThreadPanicSurfaces: a thread panicking on a 2-worker lane
// kernel, resumed by whichever goroutine ran its window, ends Run with a
// ThreadPanic naming the thread and carrying the panicking frame.
func TestLanesThreadPanicSurfaces(t *testing.T) {
	k := NewKernel()
	k.ConfigureLanes(2, 2, 10)
	for i, ln := range k.Lanes() {
		k.SpawnOn(ln, fmt.Sprintf("boom%d", i), panicOnLane)
	}
	done := make(chan error, 1)
	go func() { done <- k.Run() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after a thread panic on a lane kernel")
	}
	p, ok := err.(*ThreadPanic)
	if !ok {
		t.Fatalf("want ThreadPanic, got %v", err)
	}
	if (p.Thread != "boom0" && p.Thread != "boom1") || fmt.Sprint(p.Value) != p.Thread {
		t.Fatalf("panic = %+v", p)
	}
	if !strings.Contains(p.Stack, "sim.panicOnLane") {
		t.Fatalf("stack lacks the panicking frame:\n%s", p.Stack)
	}
}

// TestLanesCoordinatorEvents verifies Kernel.At events (fault windows,
// setup timers) interleave with lane execution at the right times.
func TestLanesCoordinatorEvents(t *testing.T) {
	k := NewKernel()
	k.ConfigureLanes(2, 2, 10)
	var coordTimes []Time
	k.At(55, func() { coordTimes = append(coordTimes, k.MainLane().Now()) })
	k.At(5, func() { coordTimes = append(coordTimes, k.MainLane().Now()) })
	for i := 0; i < 2; i++ {
		k.SpawnOn(k.Lanes()[i], fmt.Sprintf("w%d", i), func(th *Thread) {
			for j := 0; j < 20; j++ {
				th.Sleep(10)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(coordTimes) != 2 || coordTimes[0] != 5 || coordTimes[1] != 55 {
		t.Fatalf("coordinator events fired at %v", coordTimes)
	}
	if k.Now() != 200 {
		t.Fatalf("final time %d", k.Now())
	}
}
