package obs

// TraceStreamer converts a sequence of registries — typically the
// per-point child registries a sweep delivers in submission order —
// into an incremental Chrome trace_event stream. Each AppendLines call
// contributes single-line JSON objects (the same encoding
// WriteChromeTrace uses) for every record retained in reg, preceded by
// process_name / thread_name metadata lines the first time a track kind
// or track appears. pid/tid assignment is stable across calls: a track
// keeps its tid for the streamer's lifetime, so a client concatenating
//
//	"[" + join(all lines, ",") + "]"
//
// gets a valid trace_event JSON array loadable in Perfetto (Perfetto
// also accepts the unterminated array, which is what makes live piping
// work).
//
// Determinism: within one call, new tracks are discovered in sorted
// (kind, id) order and records are emitted in (start time, record
// order) order — so feeding the same registries in the same order
// always yields the same lines, which is what lets the serving layer's
// event-log replay be byte-exact.
type TraceStreamer struct {
	tids     map[trackKey]int
	next     [numTrackKinds]int
	kindSeen [numTrackKinds]bool
}

// NewTraceStreamer returns an empty streamer. Use one per logical trace
// (per run); mixing runs would interleave their tid spaces.
func NewTraceStreamer() *TraceStreamer {
	return &TraceStreamer{tids: make(map[trackKey]int)}
}

// AppendLines appends to b, comma-separated, at most limit of the
// trace_event lines reg contributes to the stream: metadata lines for
// kinds and tracks seen for the first time, then every retained record.
// It returns the extended buffer, the number of lines appended, and the
// number reg contributes in all; lines past limit are counted but never
// encoded. Every new track gets its tid whether or not its metadata line
// fits, so later calls stay consistent. A nil or trace-empty registry
// contributes nothing.
func (ts *TraceStreamer) AppendLines(b []byte, reg *Registry, limit int) (out []byte, n, total int) {
	if reg == nil || len(reg.tracks) == 0 {
		return b, 0, 0
	}
	keys := sortedTrackKeys(reg.tracks)
	sep := func() {
		if n > 0 {
			b = append(b, ',')
		}
		n++
	}

	tids := make([]int, len(keys))
	metas, records := 0, 0
	for i, key := range keys {
		records += len(reg.tracks[key].ring)
		if tid, ok := ts.tids[key]; ok {
			tids[i] = tid
			continue
		}
		pid := tracePid(key.kind)
		if !ts.kindSeen[key.kind] {
			ts.kindSeen[key.kind] = true
			if metas++; n < limit {
				sep()
				b = appendChromeMeta(b, pid, 0, "process_name", key.kind.String())
			}
		}
		tid := ts.next[key.kind]
		ts.next[key.kind]++
		ts.tids[key] = tid
		tids[i] = tid
		if metas++; n < limit {
			sep()
			b = appendChromeMeta(b, pid, tid, "thread_name", key.id)
		}
	}

	if room := limit - n; room > 0 && records > 0 {
		evs := make([]flatRec, 0, records)
		for i, key := range keys {
			evs = appendFlat(evs, reg.tracks[key], tracePid(key.kind), tids[i])
		}
		sortByTime(evs)
		for _, e := range evs[:min(room, len(evs))] {
			sep()
			b = appendChromeEvent(b, e.rec, e.pid, e.tid)
		}
	}
	return b, n, metas + records
}
