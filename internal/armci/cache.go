package armci

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
)

// remoteRegion is a cached remote memory-region descriptor (the paper's
// γ = 8-byte metadata). It is pointer-free on purpose: caches hold up to
// ζ·σ of these per rank, and the collector must not have to scan them.
// stamp is the entry's insertion order among its owner's entries, which
// is where LFU ties fall last.
type remoteRegion struct {
	base  mem.Addr
	size  int
	freq  uint64
	stamp uint64
}

// seeded holds one collective exchange's entries in a rank's cache
// implicitly, read from the allocation's shared world table: the entry
// for peer r has base a.Ptrs[r], size a.Bytes, freq 1 and the exchange's
// stamp, and exists iff r is registered, r != self, r >= wm and r is not
// in gone. A lookup hit materializes it as an explicit entry; eviction,
// purge and retire only mark it dead.
//
// Untouched seeded entries all have freq 1 and LFU breaks ties on (rank,
// base), so a table's evicted implicit entries are always a rank-ordered
// prefix of its live ones: wm advances past them. gone keeps the sparse
// rest (touched or purged peers at or above wm), sorted.
type seeded struct {
	a     *Allocation
	stamp uint64
	wm    int
	gone  []int
}

// regionCache holds remote memory-region metadata for the communication
// clique. Its capacity is bounded — caching all ζ·σ regions is
// "prohibitive on a memory limited architecture like Blue Gene/Q" — with
// least-frequently-used replacement, per §III.B. Misses are served by an
// active message to the owner.
//
// Host memory is O(σ + touched peers) per rank: entries seeded by a
// collective Malloc stay implicit in the allocation's world table until
// touched, and only peers this rank has hit or miss-inserted get explicit
// entries. The simulated behavior — hits, misses, evictions, victims and
// Len — is that of a dense cache holding every entry, with victims chosen
// by (freq, rank, base, insertion order).
type regionCache struct {
	cap      int
	self     int
	explicit map[int][]remoteRegion // owner rank -> entries in stamp order
	seeds    []*seeded              // tables with live implicit entries, in stamp order
	stamp    uint64                 // next insertion stamp
	total    int
	Hits     uint64
	Misses   uint64
	Evicted  uint64
}

func newRegionCache(capacity, self int) *regionCache {
	return &regionCache{cap: capacity, self: self, explicit: make(map[int][]remoteRegion)}
}

// Len returns the number of cached entries, implicit ones included.
func (rc *regionCache) Len() int { return rc.total }

// implicit reports whether s still holds an implicit entry for rank r.
func (rc *regionCache) implicit(s *seeded, r int) bool {
	if r < s.wm || r == rc.self || !s.a.registered(r) {
		return false
	}
	i := sort.SearchInts(s.gone, r)
	return i == len(s.gone) || s.gone[i] != r
}

// candidate returns the first rank >= r that s seeded (registered, not
// self), or procs when there is none.
func (rc *regionCache) candidate(s *seeded, r int) int {
	r = s.a.nextRegistered(r)
	if r == rc.self {
		r = s.a.nextRegistered(r + 1)
	}
	return r
}

// lastCandidate returns the highest rank s seeded, or -1.
func (rc *regionCache) lastCandidate(s *seeded) int {
	r := s.a.lastRegistered(len(s.a.Ptrs) - 1)
	if r == rc.self {
		r = s.a.lastRegistered(r - 1)
	}
	return r
}

// aliveBelow counts s's implicit entries at ranks below x.
func (rc *regionCache) aliveBelow(s *seeded, x int) int {
	if x <= s.wm {
		return 0
	}
	n := s.a.regCount(s.wm, x) - (sort.SearchInts(s.gone, x) - sort.SearchInts(s.gone, s.wm))
	if rc.self >= s.wm && rc.self < x && s.a.registered(rc.self) {
		n--
	}
	return n
}

// settle moves s.wm up to its first live entry (procs when none is
// left), dropping the gone marks it passes.
func (rc *regionCache) settle(s *seeded) {
	i := sort.SearchInts(s.gone, s.wm)
	w := rc.candidate(s, s.wm)
	for i < len(s.gone) && s.gone[i] == w {
		i++
		w = rc.candidate(s, w+1)
	}
	s.wm, s.gone = w, s.gone[i:]
}

// dropDead unlinks the tables left without implicit entries.
func (rc *regionCache) dropDead() {
	live := rc.seeds[:0]
	for _, s := range rc.seeds {
		if s.wm < len(s.a.Ptrs) {
			live = append(live, s)
		}
	}
	clear(rc.seeds[len(live):])
	rc.seeds = live
}

// markGone records that s's implicit entry for rank r is dead.
func (rc *regionCache) markGone(s *seeded, r int) {
	i := sort.SearchInts(s.gone, r)
	s.gone = append(s.gone, 0)
	copy(s.gone[i+1:], s.gone[i:])
	s.gone[i] = r
	rc.settle(s)
}

// seed adds one entry per registered peer from a collective Malloc
// exchange: exactly what inserting (r, a.Ptrs[r], a.Bytes) for every
// registered r != self in rank order would leave, in O(σ·log p) work and
// no per-peer memory.
func (rc *regionCache) seed(a *Allocation) {
	n := a.regCount(0, len(a.Ptrs))
	if a.registered(rc.self) {
		n--
	}
	if n == 0 {
		return
	}
	s := &seeded{a: a, stamp: rc.stamp}
	rc.stamp++
	rc.settle(s)
	if k := rc.total + n - rc.cap; k > 0 {
		rc.evictForExchange(s, n, k)
		rc.total = rc.cap
	} else {
		rc.total += n
	}
	rc.seeds = append(rc.seeds, s)
}

// evictForExchange applies the k evictions an over-capacity exchange of
// s's n entries causes. Inserting x_1..x_n one by one, each evicting the
// LFU minimum when full, ends with x_n plus the top cap-1 of everything
// else: the victims are exactly the k smallest entries among the cache
// and x_1..x_{n-1}. Freq-1 entries (explicit ones and every table's
// implicit ones) go first, in (rank, base, stamp) order, so a binary
// search over ranks finds the cut without visiting the evicted prefix.
func (rc *regionCache) evictForExchange(s *seeded, n, k int) {
	procs := len(s.a.Ptrs)
	last := rc.lastCandidate(s) // x_n, never a victim
	rc.Evicted += uint64(k)
	var ones []int // ranks of explicit freq-1 entries, one per entry
	for r, b := range rc.explicit {
		for i := range b {
			if b[i].freq == 1 {
				ones = append(ones, r)
			}
		}
	}
	sort.Ints(ones)
	f1 := len(ones) + n - 1
	for _, t := range rc.seeds {
		f1 += rc.aliveBelow(t, procs)
	}
	if k >= f1 {
		// Every freq-1 entry but x_n goes, then the k-f1 least used
		// explicit ones: freq-1 entries lead the victim order.
		clear(rc.seeds)
		rc.seeds = rc.seeds[:0]
		s.wm = last
		rc.evictLeastUsed(len(ones) + k - f1)
		return
	}
	below := func(x int) int {
		c := sort.SearchInts(ones, x) + min(rc.aliveBelow(s, x), n-1)
		for _, t := range rc.seeds {
			c += rc.aliveBelow(t, x)
		}
		return c
	}
	cut := sort.Search(procs, func(x int) bool { return below(x+1) >= k })
	j := k - below(cut) // victims at rank cut, in (base, stamp) order
	rc.evictExplicit(func(r int, e *remoteRegion) bool { return r < cut && e.freq == 1 })
	type tied struct {
		base  mem.Addr
		stamp uint64
		s     *seeded // nil for an explicit entry
	}
	var tie []tied
	for _, e := range rc.explicit[cut] {
		if e.freq == 1 {
			tie = append(tie, tied{base: e.base, stamp: e.stamp})
		}
	}
	for _, t := range append(rc.seeds, s) {
		if t == s && last < cut {
			s.wm = last // x_n outlives the whole cut
			continue
		}
		if t.wm < cut {
			t.wm = cut
		}
		if rc.implicit(t, cut) && (t != s || cut != last) {
			tie = append(tie, tied{base: t.a.Ptrs[cut].Addr, stamp: t.stamp, s: t})
		}
	}
	sort.Slice(tie, func(a, b int) bool {
		if tie[a].base != tie[b].base {
			return tie[a].base < tie[b].base
		}
		return tie[a].stamp < tie[b].stamp
	})
	for _, v := range tie[:j] {
		if v.s != nil {
			v.s.wm = cut + 1
		} else {
			rc.removeExplicit(cut, v.stamp)
		}
	}
	for _, t := range append(rc.seeds, s) {
		rc.settle(t)
	}
	rc.dropDead()
}

// evictExplicit drops the explicit entries drop selects, without
// counting them (callers account evictions in bulk).
func (rc *regionCache) evictExplicit(drop func(r int, e *remoteRegion) bool) {
	for r, b := range rc.explicit {
		keep := b[:0]
		for i := range b {
			if !drop(r, &b[i]) {
				keep = append(keep, b[i])
			}
		}
		if len(keep) == 0 {
			delete(rc.explicit, r)
		} else {
			rc.explicit[r] = keep
		}
	}
}

// evictLeastUsed drops the k explicit entries first in LFU victim order;
// callers account the evictions.
func (rc *regionCache) evictLeastUsed(k int) {
	type owned struct {
		r int
		e remoteRegion
	}
	var all []owned
	for r, b := range rc.explicit {
		for _, e := range b {
			all = append(all, owned{r, e})
		}
	}
	sort.Slice(all, func(i, j int) bool { return victimLess(all[i].r, &all[i].e, all[j].r, &all[j].e) })
	for _, v := range all[:k] {
		rc.removeExplicit(v.r, v.e.stamp)
	}
}

// victimLess is the LFU victim order: least frequent first, ties on
// (rank, base), then insertion order.
func victimLess(ra int, a *remoteRegion, rb int, b *remoteRegion) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	if ra != rb {
		return ra < rb
	}
	if a.base != b.base {
		return a.base < b.base
	}
	return a.stamp < b.stamp
}

// removeExplicit deletes rank's explicit entry with the given stamp.
func (rc *regionCache) removeExplicit(rank int, stamp uint64) {
	b := rc.explicit[rank]
	for i := range b {
		if b[i].stamp == stamp {
			b = append(b[:i], b[i+1:]...)
			break
		}
	}
	if len(b) == 0 {
		delete(rc.explicit, rank)
	} else {
		rc.explicit[rank] = b
	}
}

// lookup reports whether a cached region covers [addr, addr+n) at rank,
// bumping its use count for the LFU policy. The first covering entry in
// insertion order answers.
func (rc *regionCache) lookup(rank int, addr mem.Addr, n int) bool {
	covers := func(base mem.Addr, size int) bool {
		return addr >= base && uint64(addr)+uint64(n) <= uint64(base)+uint64(size)
	}
	b := rc.explicit[rank]
	hit := -1
	for i := range b {
		if covers(b[i].base, b[i].size) {
			hit = i
			break
		}
	}
	for _, s := range rc.seeds {
		if hit >= 0 && s.stamp > b[hit].stamp {
			break
		}
		if covers(s.a.Ptrs[rank].Addr, s.a.Bytes) && rc.implicit(s, rank) {
			rc.materialize(s, rank, 2) // freq 1, plus this hit
			rc.Hits++
			return true
		}
	}
	if hit < 0 {
		rc.Misses++
		return false
	}
	b[hit].freq++
	rc.Hits++
	return true
}

// materialize turns s's implicit entry for rank into an explicit one
// with the given use count.
func (rc *regionCache) materialize(s *seeded, rank int, freq uint64) {
	e := remoteRegion{base: s.a.Ptrs[rank].Addr, size: s.a.Bytes, freq: freq, stamp: s.stamp}
	b := rc.explicit[rank]
	i := sort.Search(len(b), func(i int) bool { return b[i].stamp > e.stamp })
	b = append(b, remoteRegion{})
	copy(b[i+1:], b[i:])
	b[i] = e
	rc.explicit[rank] = b
	rc.markGone(s, rank)
	rc.dropDead()
}

// insert adds an entry after a miss, evicting the least frequently used
// entry when at capacity.
func (rc *regionCache) insert(rank int, base mem.Addr, size int) {
	if rc.total >= rc.cap {
		rc.evictLFU()
	}
	rc.explicit[rank] = append(rc.explicit[rank], remoteRegion{base: base, size: size, freq: 1, stamp: rc.stamp})
	rc.stamp++
	rc.total++
}

// evictLFU removes the least frequently used entry. Implicit entries
// have freq 1, so each table offers one candidate: its entry at wm. The
// explicit scan is O(explicit entries) and runs only when the cache is at
// capacity.
func (rc *regionCache) evictLFU() {
	vRank := -1
	var victim remoteRegion
	var vSeed *seeded
	for r, b := range rc.explicit {
		for i := range b {
			if vRank < 0 || victimLess(r, &b[i], vRank, &victim) {
				vRank, victim = r, b[i]
			}
		}
	}
	for _, s := range rc.seeds {
		e := remoteRegion{base: s.a.Ptrs[s.wm].Addr, freq: 1, stamp: s.stamp}
		if vRank < 0 || victimLess(s.wm, &e, vRank, &victim) {
			vRank, victim, vSeed = s.wm, e, s
		}
	}
	if vRank < 0 {
		return
	}
	if vSeed != nil {
		vSeed.wm++
		rc.settle(vSeed)
		rc.dropDead()
	} else {
		rc.removeExplicit(vRank, victim.stamp)
	}
	rc.total--
	rc.Evicted++
}

// purge drops the first entry (in insertion order) for (rank, base).
func (rc *regionCache) purge(rank int, base mem.Addr) {
	b := rc.explicit[rank]
	hit := -1
	for i := range b {
		if b[i].base == base {
			hit = i
			break
		}
	}
	for _, s := range rc.seeds {
		if hit >= 0 && s.stamp > b[hit].stamp {
			break
		}
		if s.a.Ptrs[rank].Addr == base && rc.implicit(s, rank) {
			rc.markGone(s, rank)
			rc.dropDead()
			rc.total--
			return
		}
	}
	if hit >= 0 {
		rc.removeExplicit(rank, b[hit].stamp)
		rc.total--
	}
}

// purgeRank drops every entry owned by rank; used when the rank's RDMA
// path turns suspect and all its cached descriptors must be re-resolved.
func (rc *regionCache) purgeRank(rank int) {
	rc.total -= len(rc.explicit[rank])
	delete(rc.explicit, rank)
	for _, s := range rc.seeds {
		if rc.implicit(s, rank) {
			rc.markGone(s, rank)
			rc.total--
		}
	}
	rc.dropDead()
}

// retire purges a collectively freed allocation: purge(r, a.Ptrs[r]) for
// every rank r, walking only the ranks with explicit entries. Live
// allocations never share a base on one rank, so anywhere else the entry
// at a's address is a's own implicit one, and dropping a's table removes
// them all at once.
func (rc *regionCache) retire(a *Allocation) {
	var s *seeded
	for _, t := range rc.seeds {
		if t.a == a {
			s = t
		}
	}
	ranks := make([]int, 0, len(rc.explicit))
	for r := range rc.explicit {
		ranks = append(ranks, r)
	}
	for _, r := range ranks {
		rc.purge(r, a.Ptrs[r].Addr)
		if s != nil && rc.implicit(s, r) {
			// An older entry at the same base went instead; a's survives
			// the purge, so it outlives the table as an explicit entry.
			rc.materialize(s, r, 1)
		}
	}
	if s != nil && s.wm < len(a.Ptrs) {
		rc.total -= rc.aliveBelow(s, len(a.Ptrs))
		s.wm = len(a.Ptrs)
		rc.dropDead()
	}
}

// remoteRegionFor resolves RDMA metadata for [addr,addr+n) at rank: cache
// hit, or an active-message query to the owner (which needs the owner's
// progress engine — region misses are not free at scale). ok=false means
// the owner has no covering registration and the caller must fall back.
func (rt *Runtime) remoteRegionFor(th *sim.Thread, rank int, addr mem.Addr, n int) (ok bool) {
	if rt.regions.lookup(rank, addr, n) {
		rt.Stats.Inc("regioncache.hit", 1)
		return true
	}
	rt.Stats.Inc("regioncache.miss", 1)
	id, p := rt.newPend()
	rt.mainCtx.SendAM(th, rt.epSvc(th, rank), dRegionQ,
		[]int64{id, int64(addr), int64(n)}, nil)
	rt.mainCtx.WaitCond(th, func() bool { return p.done })
	delete(rt.pend, id)
	if !p.found {
		rt.Stats.Inc("regioncache.unresolved", 1)
		return false
	}
	before := rt.regions.Evicted
	rt.regions.insert(rank, p.base, p.size)
	if rt.regions.Evicted != before {
		rt.Stats.Inc("regioncache.evict", int64(rt.regions.Evicted-before))
	}
	return true
}

// localRegionFor returns whether local memory [addr, addr+n) is (or can
// lazily become) RDMA-capable. Registration is attempted once per miss;
// failure (region budget exhausted) routes the operation to the fallback
// protocol, as §III.C.1 prescribes.
func (rt *Runtime) localRegionFor(th *sim.Thread, addr mem.Addr, n int) bool {
	if rt.C.FindRegion(addr, n) != nil {
		return true
	}
	return rt.C.RegisterMemory(th, addr, n) != nil
}
