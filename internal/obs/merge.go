package obs

import "slices"

// NewChild returns an empty registry configured like r (same trace track
// capacity), for a run that records in isolation and is later folded back
// with Merge. Returns nil on a nil receiver, so a disabled parent yields
// disabled children for free.
func (r *Registry) NewChild() *Registry {
	if r == nil {
		return nil
	}
	return New(WithTrackCap(r.trackCap))
}

// Merge folds other into r. The semantics are chosen so that merging
// per-run child registries in submission order reproduces, byte for byte,
// the state a single shared registry would have accumulated had the runs
// recorded into it serially:
//
//   - counters add;
//   - gauges replay their last write style: SetMax-style gauges combine
//     as a running maximum, Set-style gauges as last-writer-wins (the
//     later Merge call, i.e. the later run, wins);
//   - histograms with identical bounds combine bucket-wise (differing
//     bounds for the same name are a programming error and panic);
//   - trace records are replayed track by track in their original
//     order, renumbered after r's own, so ring eviction and sequence
//     numbering end up exactly as a serial recording would have left
//     them. Track totals account for records other had already evicted.
//
// other is left untouched and both registries must share a track
// capacity. Merge into or from a nil registry is a no-op.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	if r.trackCap != other.trackCap {
		panic("obs: Merge between registries with different track capacities")
	}
	for name, c := range other.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range other.gauges {
		if !g.set {
			continue
		}
		if g.isMax {
			r.Gauge(name).SetMax(g.v)
		} else {
			r.Gauge(name).Set(g.v)
		}
	}
	for name, h := range other.hists {
		mine, ok := r.hists[name]
		if !ok {
			mine = NewHistogram(h.bounds)
			r.hists[name] = mine
		}
		if len(mine.bounds) != len(h.bounds) {
			panic("obs: Merge: histogram " + name + " bounds differ")
		}
		for i, b := range h.bounds {
			if mine.bounds[i] != b {
				panic("obs: Merge: histogram " + name + " bounds differ")
			}
		}
		for i, c := range h.counts {
			mine.counts[i] += c
		}
		mine.sum += h.sum
		mine.n += h.n
	}

	// Replay other's retained trace records in recording order. A record
	// keeps its place in other's sequence, offset past everything r
	// recorded so far — the numbers a serial recording would have
	// assigned, since other.seq counts evicted records too — so the
	// exporters' (time, seq) tie-breaks see the serial order without a
	// sort. Each track replays its ring oldest first, so ring eviction
	// ends as a serial recording would have left it, and its total
	// accounts for the records other had already evicted.
	base := r.seq
	for key, t := range other.tracks {
		mine := r.trackFor(key.kind, key.id)
		if room := r.trackCap - len(mine.ring); room > 0 {
			mine.ring = slices.Grow(mine.ring, min(room, len(t.ring)))
		}
		for _, part := range [2][]spanRec{t.ring[t.head:], t.ring[:t.head]} {
			for _, rec := range part {
				rec.seq += base
				mine.push(rec, r.trackCap)
			}
		}
		mine.total += t.total - uint64(len(t.ring))
	}
	r.seq += other.seq
}
