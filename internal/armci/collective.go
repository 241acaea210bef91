package armci

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
)

// GlobalPtr names remote memory: a rank and an address in its space.
type GlobalPtr struct {
	Rank int
	Addr mem.Addr
}

// Add offsets the pointer by n bytes.
func (g GlobalPtr) Add(n int) GlobalPtr {
	return GlobalPtr{Rank: g.Rank, Addr: g.Addr + mem.Addr(n)}
}

// String renders the pointer for diagnostics.
func (g GlobalPtr) String() string {
	return fmt.Sprintf("r%d:%#x", g.Rank, uint64(g.Addr))
}

// Allocation is the result of a collective Malloc: one block of the same
// size in every rank's space. It is one of the paper's σ "active global
// address structures". The exchange publishes one Allocation per Malloc
// and every rank shares it, so Ptrs is read-only: the world-level address
// table the region caches read their seeded entries from.
type Allocation struct {
	ID    int
	Bytes int
	Ptrs  []GlobalPtr

	// regBelow[r] counts the ranks below r whose block is registered for
	// RDMA (len(Ptrs)+1 entries): the registered bits, in a form that
	// also counts and finds registered ranks in O(log p).
	regBelow []int32
}

// At returns the block on the given rank.
func (a *Allocation) At(rank int) GlobalPtr { return a.Ptrs[rank] }

// registered reports whether rank's block is registered for RDMA.
func (a *Allocation) registered(rank int) bool { return a.regBelow[rank+1] > a.regBelow[rank] }

// regCount counts the registered ranks in [lo, hi).
func (a *Allocation) regCount(lo, hi int) int { return int(a.regBelow[hi] - a.regBelow[lo]) }

// nextRegistered returns the first registered rank >= r, or len(a.Ptrs).
func (a *Allocation) nextRegistered(r int) int {
	if r >= len(a.Ptrs) {
		return len(a.Ptrs)
	}
	c := a.regBelow[r]
	return r + sort.Search(len(a.Ptrs)-r, func(i int) bool { return a.regBelow[r+i+1] > c })
}

// lastRegistered returns the last registered rank <= r, or -1.
func (a *Allocation) lastRegistered(r int) int {
	if r < 0 {
		return -1
	}
	c := a.regBelow[r+1]
	if c == 0 {
		return -1
	}
	return sort.Search(r+1, func(i int) bool { return a.regBelow[i+1] >= c })
}

// Barrier synchronizes all ranks over the hardware combining network:
// every rank is released at max over ranks of (arrival + BarrierLatency).
// Unlike a plain barrier, the waiting thread keeps driving its progress
// engine, so remote requests are still serviced while blocked — exactly
// what ARMCI_Barrier does and what the default-mode NWChem runs rely on.
//
// The rendezvous is engine-agnostic: each arrival is a deferred
// operation, applied in canonical order at a window boundary on a
// lane-partitioned kernel (inline on a single-queue one), and the
// release is deposited into every rank's own lane. The arrival's
// minEffect (now + BarrierLatency) caps the arriving lane's window, and
// BarrierLatency ≥ the network lookahead (enforced by withDefaults)
// guarantees the release time is in every other lane's future.
func (rt *Runtime) Barrier(th *sim.Thread) { rt.barrier(th, nil) }

// barrier is Barrier with an optional release hook: when the last rank
// arrives, onRelease runs once in serial context before any rank is
// released. Every rank passes an equivalent hook; the last arrival's runs.
func (rt *Runtime) barrier(th *sim.Thread, onRelease func()) {
	w := rt.W
	gen := rt.barGen
	rt.barGen++
	eff := th.Now() + w.Cfg.Params.BarrierLatency
	th.Lane().Defer(eff, func(sim.Time) { w.barrierArrive(eff, onRelease) })
	rt.mainCtx.WaitCond(th, func() bool { return rt.barRelease > gen })
}

// barrierArrive runs in serial context (boundary applier, or inline on a
// single-queue kernel). It accumulates the release time and, on the last
// arrival, runs the release hook and deposits one release event into each
// rank's lane.
func (w *World) barrierArrive(eff sim.Time, onRelease func()) {
	if eff > w.barMax {
		w.barMax = eff
	}
	w.barCount++
	if w.barCount < w.Cfg.Procs {
		return
	}
	if onRelease != nil {
		onRelease()
	}
	release := w.barMax
	w.barCount, w.barMax = 0, 0
	for _, r := range w.Runtimes {
		rt := r
		rt.C.Ln.ScheduleAbs(release, func() {
			rt.barRelease++
			// Nudge the rank's contexts so parked waiters re-check.
			for _, x := range rt.C.Contexts {
				x.Nudge()
			}
		})
	}
}

// publishAlloc builds the world-level table of a Malloc exchange once,
// in serial context at the exchange barrier, from the addresses and
// registration results every rank deposited.
func (w *World) publishAlloc(id, bytes int) {
	w.xchAlloc = newAllocation(id, bytes, w.xchAddr, w.xchReg)
}

// newAllocation builds an allocation's table from per-rank block
// addresses and registration results.
func newAllocation(id, bytes int, addrs []mem.Addr, registered []bool) *Allocation {
	a := &Allocation{ID: id, Bytes: bytes,
		Ptrs: make([]GlobalPtr, len(addrs)), regBelow: make([]int32, len(addrs)+1)}
	for r, addr := range addrs {
		a.Ptrs[r] = GlobalPtr{Rank: r, Addr: addr}
		a.regBelow[r+1] = a.regBelow[r]
		if registered[r] {
			a.regBelow[r+1]++
		}
	}
	return a
}

// Malloc collectively allocates bytes on every rank, registers the block
// for RDMA (registration may fail under MaxRegions — the fallback
// protocols then carry the traffic), and returns the address vector, one
// table shared by every rank. The region metadata rides the collective
// exchange, pre-populating every rank's region cache — this is the σ·ζ·γ
// term of the paper's M_r space model (Eq. 5); under a tight
// RegionCacheCap the LFU policy evicts and the AM miss protocol takes
// over. All ranks must call Malloc in the same order.
func (rt *Runtime) Malloc(th *sim.Thread, bytes int) *Allocation {
	a, err := rt.MallocErr(th, bytes)
	if err != nil {
		panic(err)
	}
	return a
}

// MallocErr is the error-returning collective allocation: a non-positive
// size is reported instead of corrupting the exchange. Like Malloc, all
// ranks must call it in the same order (and so all ranks see the same
// error for the same call).
func (rt *Runtime) MallocErr(th *sim.Thread, bytes int) (*Allocation, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("armci: Malloc size must be positive, got %d", bytes)
	}
	addr := rt.C.Space.Alloc(bytes)
	reg := rt.C.RegisterMemory(th, addr, bytes)
	w := rt.W
	w.xchAddr[rt.Rank] = addr
	w.xchReg[rt.Rank] = reg != nil
	id := len(rt.allocs) // the same on every rank: collectives run in order
	rt.barrier(th, func() { w.publishAlloc(id, bytes) })
	a := w.xchAlloc
	rt.regions.seed(a)
	rt.allocs = append(rt.allocs, a)
	rt.Barrier(th) // protect the exchange buffers before reuse
	rt.Stats.Inc("malloc", 1)
	return a, nil
}

// Free collectively releases an allocation. Every rank retires the
// allocation's table from its remote region cache, so later allocations
// reusing the addresses cannot hit stale RDMA metadata.
func (rt *Runtime) Free(th *sim.Thread, a *Allocation) {
	if err := rt.FreeErr(th, a); err != nil {
		panic(err)
	}
}

// FreeErr is the error-returning collective free: nil or already-freed
// allocations are reported instead of panicking deep in the allocator.
func (rt *Runtime) FreeErr(th *sim.Thread, a *Allocation) error {
	if a == nil {
		return fmt.Errorf("armci: Free of nil allocation")
	}
	known := false
	for _, al := range rt.allocs {
		if al == a {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("armci: Free of unknown or already-freed allocation %d", a.ID)
	}
	rt.Barrier(th) // no rank may still be using the block
	rt.regions.retire(a)
	if reg := rt.C.FindRegion(a.Ptrs[rt.Rank].Addr, a.Bytes); reg != nil {
		rt.C.DeregisterMemory(reg)
	}
	rt.C.Space.Free(a.Ptrs[rt.Rank].Addr)
	for i, al := range rt.allocs {
		if al == a {
			rt.allocs = append(rt.allocs[:i], rt.allocs[i+1:]...)
			break
		}
	}
	rt.Barrier(th)
	return nil
}

// AllReduceSum is a collective sum over one float64 per rank (the GA_Dgop
// kernel NWChem uses for energies). It rides the hardware combining
// network: two barrier traversals, no point-to-point traffic. All ranks
// receive the identical total, summed in rank order so the result is
// deterministic.
func (rt *Runtime) AllReduceSum(th *sim.Thread, v float64) float64 {
	w := rt.W
	w.xchF64[rt.Rank] = v
	rt.Barrier(th)
	total := 0.0
	for _, x := range w.xchF64 {
		total += x
	}
	rt.Barrier(th) // protect the exchange buffer before reuse
	return total
}

// allocKey maps a remote address to the allocation (distributed data
// structure) containing it, or -1 when unknown. This is the cs_mr key of
// §III.E: conflicts are tracked per structure, not per process.
func (rt *Runtime) allocKey(g GlobalPtr) int {
	for _, a := range rt.allocs {
		p := a.Ptrs[g.Rank]
		if g.Addr >= p.Addr && uint64(g.Addr) < uint64(p.Addr)+uint64(a.Bytes) {
			return a.ID
		}
	}
	return -1
}
