package armci

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestFreePurgesRegionCache: collectively freeing an allocation and
// re-Mallocing at the same base must not leave stale RDMA descriptors —
// the second allocation's traffic has to resolve fresh metadata and land
// in the new block.
func TestFreePurgesRegionCache(t *testing.T) {
	const procs = 2
	const n = 1024
	_, err := Run(atCfg(procs), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, n)
		baseA := a.At(1).Addr
		if rt.Rank == 0 {
			// Warm the cache with a real transfer to rank 1's block.
			local := rt.LocalAlloc(th, n)
			rt.Put(th, local, a.At(1), n)
			rt.Fence(th, 1)
			if !rt.regions.lookup(1, baseA, n) {
				t.Error("descriptor for rank 1 not cached after put")
			}
		}
		rt.Barrier(th)
		rt.Free(th, a)
		if rt.Rank == 0 && rt.regions.lookup(1, baseA, n) {
			t.Error("stale descriptor for freed block survived Free")
		}

		// The allocator reuses the freed space, so b sits at a's base; a
		// stale cached descriptor would now cover the wrong registration.
		b := rt.Malloc(th, n)
		if b.At(1).Addr != baseA {
			t.Fatalf("re-Malloc moved: %#x, want reuse of %#x", uint64(b.At(1).Addr), uint64(baseA))
		}
		if rt.Rank == 0 {
			local := rt.LocalAlloc(th, n)
			pat := make([]byte, n)
			for i := range pat {
				pat[i] = byte(i * 13)
			}
			rt.Space().CopyIn(local, pat)
			rt.Put(th, local, b.At(1), n)
			rt.Fence(th, 1)
		}
		rt.Barrier(th)
		if rt.Rank == 1 {
			got := rt.Space().Bytes(b.At(1).Addr, n)
			for i := range got {
				if got[i] != byte(i*13) {
					t.Fatalf("byte %d = %#x after re-Malloc put, want %#x", i, got[i], byte(i*13))
				}
			}
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInsertExchangePartialRegistration: ranks whose registration failed
// must not be seeded into the cache (their traffic needs the fallback
// protocols), while registered peers still land — under capacity and
// over it.
func TestInsertExchangePartialRegistration(t *testing.T) {
	const procs = 6
	addrs := make([]mem.Addr, procs)
	registered := make([]bool, procs)
	for r := range addrs {
		addrs[r] = mem.Addr(0x1000 + r*0x100)
		registered[r] = r%2 == 0 // odd ranks failed to register
	}
	a := newAllocation(0, 0x80, addrs, registered)

	rc := newRegionCache(64, 1)
	rc.seed(a)
	// Self (rank 1, unregistered anyway) and odd ranks must be absent.
	if got, want := rc.Len(), 3; got != want { // ranks 0, 2, 4
		t.Fatalf("cached entries = %d, want %d", got, want)
	}
	for r := 0; r < procs; r++ {
		hit := rc.lookup(r, addrs[r], 0x80)
		want := registered[r] && r != 1
		if hit != want {
			t.Errorf("rank %d cached = %v, want %v", r, hit, want)
		}
	}

	// Over capacity: the exchange evicts as it seeds.
	small := newRegionCache(2, 1)
	small.seed(a)
	if small.Len() != 2 {
		t.Fatalf("capped cache entries = %d, want 2", small.Len())
	}
	if small.Evicted == 0 {
		t.Error("capped exchange evicted nothing")
	}

	// A pre-populated peer keeps its entry beside the seeded one.
	pre := newRegionCache(64, 1)
	pre.insert(2, 0x9000, 0x40)
	pre.seed(a)
	if !pre.lookup(2, 0x9000, 0x40) {
		t.Error("pre-existing entry lost in exchange")
	}
	if !pre.lookup(2, addrs[2], 0x80) {
		t.Error("exchanged entry missing from pre-populated peer")
	}
}

// TestInsertExchangeEvictingEquivalence pins the over-capacity exchange
// against the loop it replaces: seeding a table must leave the cache in
// exactly the state that inserting each registered peer in rank order
// would — same entries, same order, same freqs, same eviction count —
// from a pre-populated cache with mixed frequencies.
func TestInsertExchangeEvictingEquivalence(t *testing.T) {
	const procs = 97
	const cap = 24
	const self = 2
	addrs := make([]mem.Addr, procs)
	registered := make([]bool, procs)
	for r := range addrs {
		addrs[r] = mem.Addr(0x10000 + r*0x200)
		registered[r] = r%5 != 3 // a few unregistered peers
	}

	// Identical non-trivial initial states: partial prior contents whose
	// freqs vary (some out-rank the incoming freq-1 entries and survive,
	// some don't).
	sparse, dense := newRegionCache(cap, self), newDenseCache(cap, procs)
	for i := 0; i < 10; i++ {
		rank := (i*7 + 2) % procs
		base := mem.Addr(0x9000 + i*0x40)
		sparse.insert(rank, base, 0x20)
		dense.insert(rank, base, 0x20)
		for b := 0; b < i%4; b++ {
			sparse.lookup(rank, base, 0x20) // freq bump
			dense.lookup(rank, base, 0x20)
		}
	}

	sparse.seed(newAllocation(0, 0x80, addrs, registered))
	dense.insertExchange(self, addrs, registered, 0x80)
	if err := sameCache(sparse, dense); err != nil {
		t.Fatal(err)
	}
}

// denseRegion is one entry of the dense oracle cache.
type denseRegion struct {
	rank int
	base mem.Addr
	size int
	freq uint64
}

// denseCache is the region cache as a dense per-rank bucket array, every
// seeded entry stored explicitly. It is O(p) per rank — the layout the
// sparse cache replaced — and survives as the oracle the sparse cache's
// hits, misses, victims and contents are checked against.
type denseCache struct {
	cap     int
	byRank  [][]denseRegion
	total   int
	Hits    uint64
	Misses  uint64
	Evicted uint64
}

func newDenseCache(capacity, procs int) *denseCache {
	return &denseCache{cap: capacity, byRank: make([][]denseRegion, procs)}
}

func (rc *denseCache) Len() int { return rc.total }

func (rc *denseCache) lookup(rank int, addr mem.Addr, n int) bool {
	b := rc.byRank[rank]
	for i := range b {
		r := &b[i]
		if addr >= r.base && uint64(addr)+uint64(n) <= uint64(r.base)+uint64(r.size) {
			r.freq++
			rc.Hits++
			return true
		}
	}
	rc.Misses++
	return false
}

// insert adds an entry, evicting the least frequently used entry when at
// capacity.
func (rc *denseCache) insert(rank int, base mem.Addr, size int) {
	if rc.total >= rc.cap {
		rc.evictLFU()
	}
	rc.byRank[rank] = append(rc.byRank[rank], denseRegion{rank: rank, base: base, size: size, freq: 1})
	rc.total++
}

// insertExchange seeds a collective Malloc exchange: insert(r, addrs[r],
// size) for every registered r != self, in rank order.
func (rc *denseCache) insertExchange(self int, addrs []mem.Addr, registered []bool, size int) {
	for r := range addrs {
		if registered[r] && r != self {
			rc.insert(r, addrs[r], size)
		}
	}
}

// evictLFU removes the least frequently used entry, ties broken on
// (rank, base), then bucket position.
func (rc *denseCache) evictLFU() {
	vRank, vIdx := -1, -1
	var victim *denseRegion
	for rank := range rc.byRank {
		b := rc.byRank[rank]
		for i := range b {
			r := &b[i]
			if victim == nil || r.freq < victim.freq ||
				(r.freq == victim.freq && (r.rank < victim.rank ||
					(r.rank == victim.rank && r.base < victim.base))) {
				victim, vRank, vIdx = r, rank, i
			}
		}
	}
	if victim == nil {
		return
	}
	b := rc.byRank[vRank]
	copy(b[vIdx:], b[vIdx+1:])
	rc.byRank[vRank] = b[:len(b)-1]
	rc.total--
	rc.Evicted++
}

func (rc *denseCache) purge(rank int, base mem.Addr) {
	b := rc.byRank[rank]
	for i := range b {
		if b[i].base == base {
			copy(b[i:], b[i+1:])
			rc.byRank[rank] = b[:len(b)-1]
			rc.total--
			return
		}
	}
}

func (rc *denseCache) purgeRank(rank int) {
	rc.total -= len(rc.byRank[rank])
	rc.byRank[rank] = nil
}

// retire is what Free did before tables: purge every rank's block.
func (rc *denseCache) retire(addrs []mem.Addr) {
	for r, a := range addrs {
		rc.purge(r, a)
	}
}

// entries lists the sparse cache's contents as the dense cache would
// hold them: per rank, explicit and implicit entries in insertion order.
func (rc *regionCache) entries(procs int) [][]denseRegion {
	out := make([][]denseRegion, procs)
	for r := 0; r < procs; r++ {
		type stamped struct {
			e     denseRegion
			stamp uint64
		}
		var all []stamped
		for _, e := range rc.explicit[r] {
			all = append(all, stamped{denseRegion{r, e.base, e.size, e.freq}, e.stamp})
		}
		for _, s := range rc.seeds {
			if rc.implicit(s, r) {
				all = append(all, stamped{denseRegion{r, s.a.Ptrs[r].Addr, s.a.Bytes, 1}, s.stamp})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].stamp < all[j].stamp })
		for _, x := range all {
			out[r] = append(out[r], x.e)
		}
	}
	return out
}

// sameCache reports the first difference between the sparse cache and
// the oracle: counters, Len, or any entry.
func sameCache(sp *regionCache, d *denseCache) error {
	if sp.Hits != d.Hits || sp.Misses != d.Misses || sp.Evicted != d.Evicted || sp.Len() != d.Len() {
		return fmt.Errorf("counters: sparse hits %d misses %d evicted %d len %d, dense %d %d %d %d",
			sp.Hits, sp.Misses, sp.Evicted, sp.Len(), d.Hits, d.Misses, d.Evicted, d.Len())
	}
	got := sp.entries(len(d.byRank))
	for r, want := range d.byRank {
		if len(got[r]) != len(want) {
			return fmt.Errorf("rank %d: sparse %+v, dense %+v", r, got[r], want)
		}
		for i := range want {
			if got[r][i] != want[i] {
				return fmt.Errorf("rank %d slot %d: sparse %+v, dense %+v", r, i, got[r][i], want[i])
			}
		}
	}
	n := 0
	for _, b := range sp.explicit {
		n += len(b)
	}
	for _, s := range sp.seeds {
		n += sp.aliveBelow(s, len(s.a.Ptrs))
	}
	if n != sp.Len() {
		return fmt.Errorf("sparse Len %d, but it holds %d entries", sp.Len(), n)
	}
	return nil
}

// cachePair decodes bytes into region-cache operations and applies
// each to the sparse cache and the dense oracle. Tables model collective
// Mallocs: each live table owns an address slot, so no two live tables
// share a base on a rank, and a retired slot is reused by the next one.
// Every rank also owns two local regions outside any table.
type cachePair struct {
	procs, self int
	sparse      *regionCache
	dense       *denseCache
	live        []*Allocation
	slots       []int // live[i]'s address slot
	ids         int
}

// newCachePair reads the world shape from the first four bytes: p in
// [2, 33], a capacity below, at or above p, and self.
func newCachePair(h []byte) *cachePair {
	p := 2 + int(h[0])%32
	var capacity int
	switch h[1] % 3 {
	case 0:
		capacity = 1 + int(h[2])%(p-1)
	case 1:
		capacity = p
	default:
		capacity = p + 1 + int(h[2])%(2*p)
	}
	self := int(h[3]) % p
	return &cachePair{procs: p, self: self,
		sparse: newRegionCache(capacity, self), dense: newDenseCache(capacity, p)}
}

func (d *cachePair) tableBase(slot, r int) mem.Addr {
	return mem.Addr(0x10000 + slot*0x1000 + (r%3)*0x10)
}

func (d *cachePair) localBase(r, j int) mem.Addr {
	return mem.Addr(0x800000 + r*0x1000 + j*0x400)
}

// step applies one 4-byte operation and returns a description of it.
func (d *cachePair) step(op []byte) string {
	kind, a1, a2, a3 := op[0]%8, int(op[1]), int(op[2]), int(op[3])
	rank := a1 % d.procs
	switch kind {
	case 0, 1: // collective Malloc exchange
		if len(d.live) >= 6 {
			return "exchange skipped"
		}
		slot := 0
		for used := true; used; {
			used = false
			for _, s := range d.slots {
				if s == slot {
					used, slot = true, slot+1
					break
				}
			}
		}
		addrs := make([]mem.Addr, d.procs)
		registered := make([]bool, d.procs)
		for r := range addrs {
			addrs[r] = d.tableBase(slot, r)
			registered[r] = a1&1 == 0 || (r*7+a1)%5 != 0
		}
		size := 0x40 + 8*(a2%64)
		a := newAllocation(d.ids, size, addrs, registered)
		d.ids++
		d.live, d.slots = append(d.live, a), append(d.slots, slot)
		d.sparse.seed(a)
		d.dense.insertExchange(d.self, addrs, registered, size)
		return fmt.Sprintf("exchange slot %d size %#x", slot, size)
	case 2, 3: // lookup, and on a miss the owner's answer
		var base, addr mem.Addr
		size, found := 0, false
		switch {
		case a2%3 == 0 && len(d.live) > 0:
			a := d.live[a3%len(d.live)]
			base, size, found = a.Ptrs[rank].Addr, a.Bytes, a.registered(rank)
			addr = base + mem.Addr(8*(a3%(a.Bytes/8)))
		case a2%3 == 1:
			base, size, found = d.localBase(rank, a3%2), 0x200, true
			addr = base + mem.Addr(8*(a3%64))
		default:
			addr = mem.Addr(0x700000 + 8*a3) // nobody's region
		}
		hs, hd := d.sparse.lookup(rank, addr, 8), d.dense.lookup(rank, addr, 8)
		if hs != hd {
			return fmt.Sprintf("lookup r%d %#x: sparse %v, dense %v", rank, addr, hs, hd)
		}
		if !hs && found {
			d.sparse.insert(rank, base, size)
			d.dense.insert(rank, base, size)
		}
		return fmt.Sprintf("lookup r%d %#x hit %v", rank, addr, hs)
	case 4: // an arbitrary miss-insert, overlapping or duplicating
		base := d.localBase(rank, a2%2) + mem.Addr(8*(a3%8))
		if a2%3 == 0 && len(d.live) > 0 {
			base = d.live[a3%len(d.live)].Ptrs[rank].Addr
		}
		size := 8 * (1 + a3%80)
		d.sparse.insert(rank, base, size)
		d.dense.insert(rank, base, size)
		return fmt.Sprintf("insert r%d %#x+%#x", rank, base, size)
	case 5:
		base := d.localBase(rank, a2%2)
		if a2%3 == 0 && len(d.live) > 0 {
			base = d.live[a3%len(d.live)].Ptrs[rank].Addr
		}
		d.sparse.purge(rank, base)
		d.dense.purge(rank, base)
		return fmt.Sprintf("purge r%d %#x", rank, base)
	case 6:
		d.sparse.purgeRank(rank)
		d.dense.purgeRank(rank)
		return fmt.Sprintf("purgeRank r%d", rank)
	default: // collective Free
		if len(d.live) == 0 {
			return "retire skipped"
		}
		i := a1 % len(d.live)
		a := d.live[i]
		addrs := make([]mem.Addr, d.procs)
		for r := range addrs {
			addrs[r] = a.Ptrs[r].Addr
		}
		d.sparse.retire(a)
		d.dense.retire(addrs)
		d.live = append(d.live[:i], d.live[i+1:]...)
		d.slots = append(d.slots[:i], d.slots[i+1:]...)
		return fmt.Sprintf("retire table %d", a.ID)
	}
}

// runCacheOps drives both caches through data (a 4-byte header, then
// 4-byte ops), comparing them after every step.
func runCacheOps(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	d := newCachePair(data)
	var trail []string
	for ops := data[4:]; len(ops) >= 4; ops = ops[4:] {
		trail = append(trail, d.step(ops[:4]))
		if err := sameCache(d.sparse, d.dense); err != nil {
			if len(trail) > 8 {
				trail = trail[len(trail)-8:]
			}
			t.Fatalf("p=%d cap=%d self=%d after %q: %v", d.procs, d.dense.cap, d.self, trail, err)
		}
	}
}

// TestRegionCacheMatchesDenseOracle drives the sparse cache and the dense
// oracle through seeded random mixes of exchange, lookup, miss-insert,
// purge, purgeRank and retire, with capacities below, at and above p.
// After every step both must agree on the lookup result, Hits, Misses,
// Evicted, Len and every entry.
func TestRegionCacheMatchesDenseOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4+4*(50+rng.Intn(250)))
		rng.Read(data)
		data[1] = byte(seed % 3) // cap below, at, above p in turn
		runCacheOps(t, data)
	}
}

// FuzzRegionCache decodes arbitrary bytes into the same operation mix
// and checks the sparse cache against the dense oracle.
func FuzzRegionCache(f *testing.F) {
	f.Add([]byte{6, 0, 3, 1, 0, 1, 7, 0, 2, 3, 0, 0, 2, 4, 1, 0, 7, 0, 0, 0})
	f.Fuzz(runCacheOps)
}
