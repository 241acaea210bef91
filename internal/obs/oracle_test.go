package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file keeps the fmt/encoding/json encoders the exporters used
// before they became append-based. They are the reference the encoder
// tests and fuzzers compare against byte for byte.

// jstrOracle renders s as a JSON string literal.
func jstrOracle(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// chromeEventLineOracle encodes one record as a Chrome trace_event line.
func chromeEventLineOracle(rec spanRec, pid, tid int) string {
	var line string
	ts := fmt.Sprintf("%d.%03d", rec.start/1000, rec.start%1000)
	switch rec.phase {
	case 'X':
		dur := rec.end - rec.start
		line = fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%d.%03d,"name":%s`,
			pid, tid, ts, dur/1000, dur%1000, jstrOracle(rec.name))
	default:
		line = fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"ts":%s,"s":"t","name":%s`,
			pid, tid, ts, jstrOracle(rec.name))
	}
	if rec.cat != "" {
		line += fmt.Sprintf(`,"cat":%s`, jstrOracle(rec.cat))
	}
	if rec.hasArg {
		line += fmt.Sprintf(`,"args":{"arg":%d}`, rec.arg)
	}
	return line + "}"
}

// chromeMetaLineOracle encodes a process_name/thread_name metadata event.
func chromeMetaLineOracle(pid, tid int, kind, name string) string {
	return fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":%s,"args":{"name":%s}}`,
		pid, tid, jstrOracle(kind), jstrOracle(name))
}

// sortedKeysOracle orders track keys by (kind, id).
func sortedKeysOracle(tracks map[trackKey]*track) []trackKey {
	keys := make([]trackKey, 0, len(tracks))
	for key := range tracks {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].id < keys[j].id
	})
	return keys
}

type flatEventOracle struct {
	rec      spanRec
	pid, tid int
}

// timeOrderOracle flattens tracks (in keys order) and sorts their records
// by (start, seq).
func timeOrderOracle(tracks map[trackKey]*track, keys []trackKey, tid func(trackKey) int) []flatEventOracle {
	var evs []flatEventOracle
	for _, key := range keys {
		for _, rec := range tracks[key].ring {
			evs = append(evs, flatEventOracle{rec: rec, pid: int(key.kind) + 1, tid: tid(key)})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].rec.start != evs[j].rec.start {
			return evs[i].rec.start < evs[j].rec.start
		}
		return evs[i].rec.seq < evs[j].rec.seq
	})
	return evs
}

// writeChromeTraceOracle is the reference Registry.WriteChromeTrace.
func writeChromeTraceOracle(r *Registry, w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n")
		return err
	}
	keys := sortedKeysOracle(r.tracks)
	tids := make(map[trackKey]int, len(keys))
	kindSeen := make([]bool, numTrackKinds)
	next := make([]int, numTrackKinds)
	for _, key := range keys {
		tids[key] = next[key.kind]
		next[key.kind]++
		kindSeen[key.kind] = true
	}
	var lines []string
	for k := TrackKind(0); k < numTrackKinds; k++ {
		if kindSeen[k] {
			lines = append(lines, chromeMetaLineOracle(int(k)+1, 0, "process_name", k.String()))
		}
	}
	for _, key := range keys {
		lines = append(lines, chromeMetaLineOracle(int(key.kind)+1, tids[key], "thread_name", key.id))
	}
	for _, e := range timeOrderOracle(r.tracks, keys, func(k trackKey) int { return tids[k] }) {
		lines = append(lines, chromeEventLineOracle(e.rec, e.pid, e.tid))
	}
	_, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"+strings.Join(lines, ",\n")+"\n]}\n")
	return err
}

// streamerOracle is the reference TraceStreamer: Emit returns every line
// a registry contributes.
type streamerOracle struct {
	tids     map[trackKey]int
	next     [numTrackKinds]int
	kindSeen [numTrackKinds]bool
}

func (ts *streamerOracle) Emit(reg *Registry) []string {
	if ts.tids == nil {
		ts.tids = make(map[trackKey]int)
	}
	if reg == nil || len(reg.tracks) == 0 {
		return nil
	}
	keys := sortedKeysOracle(reg.tracks)
	var lines []string
	for _, key := range keys {
		if _, ok := ts.tids[key]; ok {
			continue
		}
		if !ts.kindSeen[key.kind] {
			ts.kindSeen[key.kind] = true
			lines = append(lines, chromeMetaLineOracle(int(key.kind)+1, 0, "process_name", key.kind.String()))
		}
		tid := ts.next[key.kind]
		ts.next[key.kind]++
		ts.tids[key] = tid
		lines = append(lines, chromeMetaLineOracle(int(key.kind)+1, tid, "thread_name", key.id))
	}
	for _, e := range timeOrderOracle(reg.tracks, keys, func(k trackKey) int { return ts.tids[k] }) {
		lines = append(lines, chromeEventLineOracle(e.rec, e.pid, e.tid))
	}
	return lines
}

// snapshotJSONOracle is the reference Registry.SnapshotJSON.
func snapshotJSONOracle(r *Registry) string {
	var b strings.Builder
	b.WriteString(`{"counters":{`)
	if r != nil {
		names := make([]string, 0, len(r.counters))
		for name := range r.counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%d", jstrOracle(name), r.counters[name].v)
		}
	}
	b.WriteString(`},"gauges":{`)
	if r != nil {
		names := make([]string, 0, len(r.gauges))
		for name := range r.gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%d", jstrOracle(name), r.gauges[name].v)
		}
	}
	b.WriteString(`},"histograms":{`)
	if r != nil {
		names := make([]string, 0, len(r.hists))
		for name := range r.hists {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			h := r.hists[name]
			fmt.Fprintf(&b, `%s:{"count":%d,"sum":%d,"buckets":[`, jstrOracle(name), h.n, h.sum)
			for j, bound := range h.bounds {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "[%d,%d]", bound, h.counts[j])
			}
			fmt.Fprintf(&b, `],"overflow":%d}`, h.counts[len(h.bounds)])
		}
	}
	b.WriteString("}}")
	return b.String()
}
