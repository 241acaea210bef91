package obs

import (
	"io"
	"slices"
	"strconv"
)

// SnapshotJSON writes the registry's full metric state as one compact
// (single-line) JSON object:
//
//	{"counters":{name:value,...},
//	 "gauges":{name:value,...},
//	 "histograms":{name:{"count":n,"sum":s,"buckets":[[bound,count],...],"overflow":c},...}}
//
// Ordering is deterministic with the same discipline as WritePrometheus:
// every section iterates its names sorted, so two identical registries —
// or the same run replayed at a different sweep worker count — produce
// byte-identical snapshots. The single-line shape is what lets the
// serving layer embed a snapshot verbatim as one SSE `metrics` event.
//
// The cost is O(metrics): every call encodes every metric into one
// buffer, handed to w in a single Write.
//
// Like the other exporters, SnapshotJSON does not lock: callers sharing
// the registry across goroutines serialize access themselves. A nil
// registry writes an empty (but valid) snapshot.
func (r *Registry) SnapshotJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"counters":{},"gauges":{},"histograms":{}}`)
		return err
	}
	b := make([]byte, 0, 64*(len(r.counters)+len(r.gauges))+512*len(r.hists)+64)
	b = append(b, `{"counters":{`...)
	for i, name := range sortedNames(r.counters) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, name)
		b = append(b, ':')
		b = strconv.AppendInt(b, r.counters[name].v, 10)
	}
	b = append(b, `},"gauges":{`...)
	for i, name := range sortedNames(r.gauges) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, name)
		b = append(b, ':')
		b = strconv.AppendInt(b, r.gauges[name].v, 10)
	}
	b = append(b, `},"histograms":{`...)
	for i, name := range sortedNames(r.hists) {
		if i > 0 {
			b = append(b, ',')
		}
		h := r.hists[name]
		b = appendJSONString(b, name)
		b = append(b, `:{"count":`...)
		b = strconv.AppendUint(b, h.n, 10)
		b = append(b, `,"sum":`...)
		b = strconv.AppendInt(b, h.sum, 10)
		b = append(b, `,"buckets":[`...)
		for j, bound := range h.bounds {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendInt(b, bound, 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, h.counts[j], 10)
			b = append(b, ']')
		}
		b = append(b, `],"overflow":`...)
		b = strconv.AppendUint(b, h.counts[len(h.bounds)], 10)
		b = append(b, '}')
	}
	b = append(b, "}}"...)
	_, err := w.Write(b)
	return err
}

// sortedNames returns m's keys in ascending order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
