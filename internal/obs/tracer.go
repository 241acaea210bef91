package obs

import (
	"cmp"
	"io"
	"slices"
	"strings"
)

// TrackKind classifies trace tracks. In the Chrome trace_event export
// each kind becomes one "process" and each track one "thread" under it,
// so Perfetto groups all rank timelines, all progress threads, and all
// torus links into three collapsible lanes.
type TrackKind uint8

const (
	// TrackOther is the default for uncategorized threads.
	TrackOther TrackKind = iota
	// TrackRank holds one track per application (main) thread / rank.
	TrackRank
	// TrackProgress holds one track per asynchronous progress thread.
	TrackProgress
	// TrackLink holds one track per unidirectional torus link.
	TrackLink

	numTrackKinds
)

func (k TrackKind) String() string {
	switch k {
	case TrackOther:
		return "other"
	case TrackRank:
		return "ranks"
	case TrackProgress:
		return "progress"
	case TrackLink:
		return "links"
	}
	return "?"
}

type trackKey struct {
	kind TrackKind
	id   string
}

// spanRec is one retained trace record. phase 'X' is a duration span,
// 'i' an instant.
type spanRec struct {
	start, end Time
	name, cat  string
	arg        int64
	hasArg     bool
	phase      byte
	seq        uint64
}

// track is a fixed-capacity ring of records, keeping the most recent
// window per (kind, id).
type track struct {
	ring  []spanRec
	head  int
	total uint64
}

// push appends rec to the ring, overwriting the oldest record once the
// ring holds capacity records.
func (t *track) push(rec spanRec, capacity int) {
	if len(t.ring) < capacity {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.head] = rec
		t.head = (t.head + 1) % capacity
	}
	t.total++
}

// trackFor returns (creating if needed) the track for (kind, id). The
// last track used is remembered, so a run of records on one track skips
// the map lookup: in the simulations simd cold-runs, about 74% of records
// land on the same track as the record before them.
func (r *Registry) trackFor(kind TrackKind, id string) *track {
	if r.last != nil && r.lastKey.kind == kind && r.lastKey.id == id {
		return r.last
	}
	key := trackKey{kind, id}
	t, ok := r.tracks[key]
	if !ok {
		t = &track{}
		r.tracks[key] = t
	}
	r.last, r.lastKey = t, key
	return t
}

func (r *Registry) record(kind TrackKind, id string, rec spanRec) {
	rec.seq = r.seq
	r.seq++
	r.trackFor(kind, id).push(rec, r.trackCap)
}

// Span records a duration [start, end] on the given track. No-op on a
// nil registry.
func (r *Registry) Span(kind TrackKind, id, name string, start, end Time) {
	if r == nil {
		return
	}
	r.record(kind, id, spanRec{start: start, end: end, name: name, phase: 'X'})
}

// SpanArg is Span with a category string and a scalar argument (payload
// bytes, item counts) attached.
func (r *Registry) SpanArg(kind TrackKind, id, name, cat string, start, end Time, arg int64) {
	if r == nil {
		return
	}
	r.record(kind, id, spanRec{start: start, end: end, name: name, cat: cat, arg: arg, hasArg: true, phase: 'X'})
}

// Instant records a point event on the given track. No-op on a nil
// registry.
func (r *Registry) Instant(kind TrackKind, id, name string, at Time) {
	if r == nil {
		return
	}
	r.record(kind, id, spanRec{start: at, end: at, name: name, phase: 'i'})
}

// InstantArg is Instant with a category string and scalar argument.
func (r *Registry) InstantArg(kind TrackKind, id, name, cat string, at Time, arg int64) {
	if r == nil {
		return
	}
	r.record(kind, id, spanRec{start: at, end: at, name: name, cat: cat, arg: arg, hasArg: true, phase: 'i'})
}

// Event is one retained trace record, as returned by Events.
type Event struct {
	Kind       TrackKind
	Track      string // track id within the kind
	Name       string
	Cat        string
	Start, End Time
	Arg        int64
	Instant    bool
	seq        uint64
}

// Events returns the retained records of one track kind, time-ordered
// (start time, then record order). match, when non-nil, filters records
// before the sort — filtering a large trace never pays for sorting
// records it is about to drop.
func (r *Registry) Events(kind TrackKind, match func(Event) bool) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for key, t := range r.tracks {
		if key.kind != kind {
			continue
		}
		for _, rec := range t.ring {
			e := Event{
				Kind: key.kind, Track: key.id, Name: rec.name, Cat: rec.cat,
				Start: rec.start, End: rec.end, Arg: rec.arg,
				Instant: rec.phase == 'i', seq: rec.seq,
			}
			if match == nil || match(e) {
				out = append(out, e)
			}
		}
	}
	slices.SortFunc(out, func(a, b Event) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return out
}

// EventsTotal returns how many records were ever added to tracks of the
// given kind, including evicted ones.
func (r *Registry) EventsTotal(kind TrackKind) uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for key, t := range r.tracks {
		if key.kind == kind {
			n += t.total
		}
	}
	return n
}

// sortedTrackKeys returns the keys of tracks in (kind, id) order, the
// order both trace exporters assign tids in.
func sortedTrackKeys(tracks map[trackKey]*track) []trackKey {
	keys := make([]trackKey, 0, len(tracks))
	for key := range tracks {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b trackKey) int {
		if c := cmp.Compare(a.kind, b.kind); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	return keys
}

// flatRec is one retained record with the (pid, tid) it is exported
// under, carrying its sort key inline so sorting never dereferences rec.
type flatRec struct {
	start    Time
	seq      uint64
	rec      *spanRec
	pid, tid int
}

// appendFlat appends t's retained records, exported as (pid, tid).
func appendFlat(evs []flatRec, t *track, pid, tid int) []flatRec {
	for i := range t.ring {
		rec := &t.ring[i]
		evs = append(evs, flatRec{start: rec.start, seq: rec.seq, rec: rec, pid: pid, tid: tid})
	}
	return evs
}

// sortByTime orders records by (start time, record order): the global
// timeline order both trace exporters write.
func sortByTime(evs []flatRec) {
	slices.SortFunc(evs, func(a, b flatRec) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// tracePid maps a track kind to its Chrome trace process id.
func tracePid(k TrackKind) int { return int(k) + 1 }

// WriteChromeTrace exports every retained trace record as Chrome
// trace_event JSON (the format Perfetto and chrome://tracing load). Each
// TrackKind becomes a process, each track a named thread; durations are
// "X" complete events and instants "i" events, with virtual time mapped
// to microseconds at nanosecond resolution. Output is deterministic:
// tracks are sorted by (kind, id) and events by (time, insertion order).
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n")
		return err
	}

	// Stable (kind, id) -> (pid, tid) assignment: tids count up per kind
	// in sorted key order.
	keys := sortedTrackKeys(r.tracks)
	tids := make([]int, len(keys))
	var kindSeen [numTrackKinds]bool
	var next [numTrackKinds]int
	n := 0
	for i, key := range keys {
		tids[i] = next[key.kind]
		next[key.kind]++
		kindSeen[key.kind] = true
		n += len(r.tracks[key].ring)
	}

	// Every line is appended into one buffer, written once at the end.
	var b []byte
	b = append(b, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"...)
	lines := 0
	sep := func() {
		if lines > 0 {
			b = append(b, ",\n"...)
		}
		lines++
	}

	// Metadata: name each process (track kind) and thread (track).
	for k := TrackKind(0); k < numTrackKinds; k++ {
		if kindSeen[k] {
			sep()
			b = appendChromeMeta(b, tracePid(k), 0, "process_name", k.String())
		}
	}
	for i, key := range keys {
		sep()
		b = appendChromeMeta(b, tracePid(key.kind), tids[i], "thread_name", key.id)
	}

	// Events across every track, globally time-ordered.
	evs := make([]flatRec, 0, n)
	for i, key := range keys {
		evs = appendFlat(evs, r.tracks[key], tracePid(key.kind), tids[i])
	}
	sortByTime(evs)
	for _, e := range evs {
		sep()
		b = appendChromeEvent(b, e.rec, e.pid, e.tid)
	}
	b = append(b, "\n]}\n"...)
	_, err := w.Write(b)
	return err
}
