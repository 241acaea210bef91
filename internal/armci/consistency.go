package armci

import (
	"fmt"

	"repro/internal/sim"
)

// Status bits of the 8-bit per-region communication status (cs_mr).
const (
	csRead  uint8 = 1 << 0
	csWrite uint8 = 1 << 1
)

// consistency implements ARMCI's location consistency: a read (get) that
// targets memory with an outstanding conflicting write (put/accumulate)
// must fence first. Two granularities are supported:
//
//   - naive (cs_tgt): one status per target process — Θ(ζ) space, but any
//     outstanding write to a process fences every read from it;
//   - per-region (cs_mr): an 8-bit status per (distributed structure,
//     target) — Θ(σ·ζ) space, eliminating false positives between
//     independent structures (the paper's dgemm example).
//
// Writes to memory outside any known allocation are tracked in the
// per-target status in both modes (there is no region to key on). The
// status lives in the peer's peerState, so only touched peers have any.
type consistency struct {
	rt   *Runtime
	mode ConsistencyMode
}

func newConsistency(rt *Runtime, mode ConsistencyMode) *consistency {
	return &consistency{rt: rt, mode: mode}
}

// regionStatus returns the peer's status for an allocation key. Keys are
// the small dense integers Malloc assigns, so the table is a slice: every
// Fence clears the peer's bits across all σ structures, and ranging a
// slice — unlike a map, whose iteration pays a randomized start per
// range — keeps that sweep off the profile.
func (ps *peerState) regionStatus(key int) *uint8 {
	for key >= len(ps.mr) {
		ps.mr = append(ps.mr, 0)
	}
	return &ps.mr[key]
}

// noteWrite records an outstanding write (put or accumulate) to (rank,
// structure key).
func (c *consistency) noteWrite(rank, key int) {
	ps := c.rt.peer(rank)
	if c.mode == ConsistencyNaive || key < 0 {
		ps.tgt |= csWrite
		return
	}
	*ps.regionStatus(key) |= csWrite
}

// noteRead records an outstanding read.
func (c *consistency) noteRead(rank, key int) {
	ps := c.rt.peer(rank)
	if c.mode == ConsistencyNaive || key < 0 {
		ps.tgt |= csRead
		return
	}
	*ps.regionStatus(key) |= csRead
}

// checkRead fences the target if the pending read conflicts with an
// outstanding write under the active mode. It also counts reads that the
// naive scheme would have fenced but the per-region scheme did not — the
// quantity the §III.E ablation reports.
func (c *consistency) checkRead(th *sim.Thread, rank, key int) {
	ps := c.rt.peers[rank]
	if ps == nil {
		return // nothing outstanding toward an untouched peer
	}
	conflict := ps.tgt&csWrite != 0
	naiveWould := conflict
	if c.mode == ConsistencyPerRegion {
		if !conflict && key >= 0 && key < len(ps.mr) {
			conflict = ps.mr[key]&csWrite != 0
		}
		if !naiveWould {
			// Would naive mode have fenced? Any outstanding write to rank.
			for _, s := range ps.mr {
				if s&csWrite != 0 {
					naiveWould = true
					break
				}
			}
		}
	}
	if conflict {
		c.rt.Stats.Inc("conflict.fence", 1)
		c.rt.Fence(th, rank)
		return
	}
	if naiveWould {
		c.rt.Stats.Inc("conflict.avoided", 1)
	}
}

// clearRank resets all status for a fenced target.
func (c *consistency) clearRank(rank int) {
	if ps := c.rt.peers[rank]; ps != nil {
		ps.tgt = 0
		clear(ps.mr)
	}
}

// Fence blocks until every outstanding write from this process to rank is
// remotely visible: RDMA puts are flushed with an ordered control
// round-trip, and AM writes (fallback puts, accumulates) are awaited via
// their acks. Clears the conflict status for the target (§III.E).
func (rt *Runtime) Fence(th *sim.Thread, rank int) {
	if rt.faulty() {
		rt.fenceFT(th, rank)
		return
	}
	pr := rt.peer(rank)
	if pr.unflushedPuts > 0 {
		comp := sim.NewCompletion(rt.W.K)
		rt.mainCtx.FlushRemote(th, rt.epData(th, rank), comp)
		rt.mainCtx.WaitLocal(th, comp)
		pr.unflushedPuts = 0
		rt.Stats.Inc("fence.flush", 1)
	}
	if pr.unackedAMs > 0 {
		rt.mainCtx.WaitCond(th, func() bool { return pr.unackedAMs == 0 })
		rt.Stats.Inc("fence.ack", 1)
	}
	rt.cons.clearRank(rank)
	rt.Stats.Inc("fence", 1)
	rt.tr("fence", "fence", int64(rank))
}

// fenceFT is the chaos-run fence. The flush round-trip can itself be
// lost, so it is retried under the policy; outstanding AM acks (from
// legacy non-blocking writes) are awaited with a bounded deadline. The
// blocking *Err operations are end-to-end on chaos runs and leave
// nothing for the fence to wait on — this path mainly covers workloads
// that mix legacy Nb* writes with fault injection, which is best-effort:
// a lost Nb write's ack never arrives and the fence panics.
func (rt *Runtime) fenceFT(th *sim.Thread, rank int) {
	pr := rt.peer(rank)
	if pr.unflushedPuts > 0 {
		comp := sim.NewCompletion(rt.W.K)
		err := rt.retryLoop(th, "fence.flush", rank, 0, comp, func(int) {
			rt.mainCtx.FlushRemote(th, rt.epData(th, rank), comp)
		}, nil)
		if err != nil {
			panic(fmt.Sprintf("armci: fence flush to rank %d exhausted retries: %v", rank, err))
		}
		pr.unflushedPuts = 0
		rt.Stats.Inc("fence.flush", 1)
	}
	if pr.unackedAMs > 0 {
		deadline := th.Now() + rt.retry.Timeout*sim.Time(rt.retry.MaxAttempts)
		if !rt.mainCtx.WaitCondUntil(th, func() bool { return pr.unackedAMs == 0 }, deadline) {
			panic(fmt.Sprintf("armci: fence to rank %d timed out awaiting %d AM acks; "+
				"non-blocking writes are not fault-hardened — use the blocking *Err forms on chaos runs",
				rank, pr.unackedAMs))
		}
		rt.Stats.Inc("fence.ack", 1)
	}
	rt.cons.clearRank(rank)
	rt.Stats.Inc("fence", 1)
	rt.tr("fence", "fence", int64(rank))
}

// AllFence fences every target with outstanding writes (ARMCI_AllFence)
// in ascending rank order and clears every other peer's conflict status.
// It walks touched peers only, then forgets those left clean. While it
// blocks in a fence only acks arrive, which never add peer state, so a
// snapshot of the touched peers is the whole walk.
func (rt *Runtime) AllFence(th *sim.Thread) {
	for _, rank := range rt.touchedPeers() {
		if puts, ams := rt.pendingWrites(rank); puts > 0 || ams > 0 {
			rt.Fence(th, rank)
		} else {
			rt.cons.clearRank(rank)
		}
	}
	now := rt.C.Ln.Now()
	for rank, ps := range rt.peers {
		if ps.clean(now) {
			delete(rt.peers, rank)
		}
	}
	rt.Stats.Inc("allfence", 1)
}
