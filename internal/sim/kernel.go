package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// Kernel is the discrete-event scheduler. It owns the virtual clock and the
// event queue, and serializes execution of all simulated threads.
//
// The queue is split between a value-based min-heap (future events) and a
// FIFO ring (events at the current instant); see queue.go for the layout
// and the ordering proof. Steady-state scheduling performs zero heap
// allocations: both containers recycle their backing arrays, and thread
// wake-ups carry a typed *Thread target instead of a closure.
//
// A kernel is single-lane by default: the embedded base Lane is the whole
// scheduler, and every legacy call (At, Spawn, Now) promotes to it
// unchanged. ConfigureLanes partitions the simulation into additional
// lanes advanced in conservative time windows, possibly on parallel
// worker goroutines; see lane.go.
type Kernel struct {
	Lane // base lane: the whole scheduler single-lane, the coordinator queue multi-lane

	// Multi-lane state (zero for classic single-lane kernels).
	multi          bool
	workers        int
	lookahead      Time
	laneGroup      int  // execution grain: lanes per worker dispatch chunk
	serialBoundary bool // oracle mode: apply boundary deposits serially
	lanes          []*Lane
	laneSpares     *laneSpareSet
	exec           *laneExec
	inWindow       atomic.Bool
	inBoundary     bool
	laneInserted   bool
	lanesMerged    bool

	// Horizon tree (horizon.go): tournament min-tree over lane
	// next-event times, refreshed only for dirty lanes each round.
	htree     []hnode
	htreeBase int
	dirty     []*Lane

	// Round scratch, reused across rounds without reallocation.
	runnable    []*Lane    // lanes selected to run the current window
	deferLanes  []*Lane    // lanes holding deferred boundary operations
	stagedLanes []*Lane    // lanes holding staged boundary deposits
	merge       []mergeEnt // k-way merge heap over deferred-log heads

	// Round-level observability (nil handles are no-ops).
	boundaryOps    uint64
	obsRounds      *obs.Counter
	obsBoundaryOps *obs.Counter
	obsWindowWidth *obs.Histogram
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	k.Lane.k = k
	k.Lane.winCap = timeInf
	return k
}

// SetObs installs the observability registry. All kernel, thread, and
// mutex instrumentation is a no-op until this is called; nil uninstalls.
// With lanes, SetObs must precede ConfigureLanes so each lane can derive
// its child registry.
func (k *Kernel) SetObs(r *obs.Registry) {
	k.Lane.obs = r
	k.Lane.obsEvents = r.Counter("sim/events") // nil when r is nil
}

// EventsFired returns the number of events executed so far across every
// lane; useful for gauging simulation cost and for replay-determinism
// checks.
func (k *Kernel) EventsFired() uint64 {
	n := k.Lane.fired
	for _, ln := range k.lanes {
		n += ln.fired
	}
	return n
}

// Pending returns the number of scheduled, not-yet-fired events across
// every lane.
func (k *Kernel) Pending() int {
	n := len(k.Lane.heap) + k.Lane.ring.n
	for _, ln := range k.lanes {
		n += len(ln.heap) + ln.ring.n
	}
	return n
}

// scheduleThread schedules a control transfer to t at now+delay on this
// lane. It is the closure-free twin of At for the scheduler's own traffic
// (Spawn/Sleep/Yield/Wake), which dominates the event mix.
func (ln *Lane) scheduleThread(delay Time, t *Thread) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	ln.seq++
	e := event{at: ln.now + delay, seq: ln.seq, t: t}
	if delay == 0 {
		ln.ring.push(e)
	} else {
		ln.heapPush(e)
	}
}

// ThreadPanic is returned by Run when a simulated thread panicked.
type ThreadPanic struct {
	Thread string
	Value  any
	Stack  string
}

func (p *ThreadPanic) Error() string {
	return fmt.Sprintf("sim: thread %q panicked: %v\n%s", p.Thread, p.Value, p.Stack)
}

// DeadlockError is returned by Run when no events remain but live threads
// are still blocked.
type DeadlockError struct {
	At      Time
	Blocked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %s; blocked threads: %s",
		FormatTime(d.At), strings.Join(d.Blocked, ", "))
}

// Run executes events until the queue drains. It returns nil when every
// spawned thread has finished, a DeadlockError when threads remain blocked
// with nothing scheduled, or a ThreadPanic if a thread panicked. On an
// error every unfinished thread is released (see releaseThreads).
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	var err error
	if k.multi {
		err = k.runLanes()
	} else {
		err = k.runSerial()
	}
	if err != nil {
		k.releaseThreads()
	}
	return err
}

// runSerial is the single-lane event loop.
func (k *Kernel) runSerial() error {
	for k.ring.n > 0 || len(k.heap) > 0 {
		// Merge the two queues on (at, seq). On equal timestamps the heap
		// entry was scheduled first (see queue.go), so it wins ties.
		var e event
		if k.ring.n == 0 || (len(k.heap) > 0 && k.heap[0].at <= k.ring.buf[k.ring.head].at) {
			e = k.heapPop()
		} else {
			e = k.ring.pop()
		}
		if e.at < k.now {
			panic("sim: time went backwards")
		}
		k.now = e.at
		k.fired++
		k.obsEvents.Add(1)
		if e.t != nil {
			k.transfer(e.t)
		} else {
			e.fn()
		}
		if k.failure != nil {
			return k.failure
		}
	}
	if k.obs != nil {
		k.obs.Gauge("sim/final_ns").SetMax(k.now)
	}
	if k.live > 0 {
		var blocked []string
		for _, t := range k.threads {
			if t.state != stateDone {
				blocked = append(blocked, fmt.Sprintf("%s(%s)", t.Name, t.state))
			}
		}
		sort.Strings(blocked)
		return &DeadlockError{At: k.now, Blocked: blocked}
	}
	return nil
}

// transfer resumes thread t's coroutine on the calling goroutine and
// returns when t yields back or finishes. It must only be called from
// the lane's event loop.
func (ln *Lane) transfer(t *Thread) {
	if t.state == stateDone {
		return
	}
	t.state = stateRunning
	ln.cur = t
	t.next()
	ln.cur = nil
	if t.panicked != nil && ln.failure == nil {
		ln.failure = t.panicked
	}
}

// Current returns the thread currently executing, or nil when the kernel
// itself (an event callback) is running. Meaningful only on a
// single-lane kernel; with lanes, each lane tracks its own current
// thread.
func (k *Kernel) Current() *Thread { return k.Lane.cur }
