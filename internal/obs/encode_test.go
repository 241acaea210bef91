package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzChromeEventLine checks the append-based trace encoders against the
// fmt/encoding/json oracles byte for byte: string escaping, the
// %d.%03d microsecond rendering (negative and extreme times included),
// both phases, the optional cat and arg fields, and metadata lines.
func FuzzChromeEventLine(f *testing.F) {
	f.Add("put", "net", int64(1234567), int64(1238568), int64(512), true, false, 3, 7)
	f.Fuzz(func(t *testing.T, name, cat string, start, end, arg int64, hasArg, instant bool, pid, tid int) {
		rec := spanRec{start: start, end: end, name: name, cat: cat, arg: arg, hasArg: hasArg, phase: 'X'}
		if instant {
			rec.phase = 'i'
		}
		if got, want := string(appendChromeEvent(nil, &rec, pid, tid)), chromeEventLineOracle(rec, pid, tid); got != want {
			t.Fatalf("event line\n got %s\nwant %s", got, want)
		}
		if got, want := string(appendChromeMeta(nil, pid, tid, cat, name)), chromeMetaLineOracle(pid, tid, cat, name); got != want {
			t.Fatalf("metadata line\n got %s\nwant %s", got, want)
		}
		prefix := []byte("x,")
		if got, want := string(appendJSONString(prefix, name)), "x,"+jstrOracle(name); got != want {
			t.Fatalf("string literal\n got %s\nwant %s", got, want)
		}
	})
}

// TestAppendJSONStringEveryByte checks every single byte value, alone
// between plain ASCII, against encoding/json: each byte the fast path
// must refuse is refused on its own, not only next to another one.
func TestAppendJSONStringEveryByte(t *testing.T) {
	for c := 0; c < 256; c++ {
		s := "a" + string([]byte{byte(c)}) + "b"
		if got, want := string(appendJSONString(nil, s)), jstrOracle(s); got != want {
			t.Errorf("byte %#02x: got %s, want %s", c, got, want)
		}
	}
}

// FuzzSnapshotJSON checks SnapshotJSON against the fmt oracle byte for
// byte over metric names that need escaping, extreme counter, gauge and
// sum values, and histogram counts above MaxInt64.
func FuzzSnapshotJSON(f *testing.F) {
	f.Add("lat/put_ns{rank=0}", int64(42), uint64(3), int64(-7), int64(100), uint64(2), uint64(1))
	f.Fuzz(func(t *testing.T, name string, v int64, n uint64, sum, bound int64, count, overflow uint64) {
		r := New()
		r.Counter(name).Add(v)
		r.Counter("a").Add(-v)
		r.Gauge(name).Set(v)
		r.Gauge("z").SetMax(math.MinInt64)
		h := r.Histogram(name, []Time{bound})
		h.n, h.sum, h.counts[0], h.counts[1] = n, sum, count, overflow
		r.Histogram("m", DefaultLatencyBounds).Observe(v)
		var buf bytes.Buffer
		if err := r.SnapshotJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if got, want := buf.String(), snapshotJSONOracle(r); got != want {
			t.Fatalf("snapshot\n got %s\nwant %s", got, want)
		}
	})
}

// oddTrace records names the fast string path must hand to
// encoding/json, negative and sub-microsecond times, and enough records
// to wrap its rings.
func oddTrace() *Registry {
	r := New(WithTrackCap(4))
	names := []string{"plain", `quo"te`, "back\\slash", "<b>&amp;", "tab\there", "\x00ctl", "bad\xffutf8", "sep line", "del\x7f", "ünï"}
	for i, name := range names {
		at := Time(i*997 - 3000)
		r.SpanArg(TrackRank, name, name, "cat"+name, at, at+Time(i*i), int64(-i))
		r.Instant(TrackLink, "link"+name, name, at/7)
		r.Span(TrackProgress, "p", name, at, at-5)
		r.Instant(TrackOther, "o", name, math.MinInt64+Time(i))
	}
	return r
}

func TestWriteChromeTraceMatchesOracle(t *testing.T) {
	for name, reg := range map[string]*Registry{
		"nil": nil, "empty": New(), "populated": populated(), "same": sameTrace(),
		"odd": oddTrace(), "point": benchPoint(),
	} {
		var got, want bytes.Buffer
		if err := reg.WriteChromeTrace(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeChromeTraceOracle(reg, &want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: WriteChromeTrace differs from the oracle (%d vs %d bytes)", name, got.Len(), want.Len())
		}
	}
}

func TestSnapshotJSONMatchesOracle(t *testing.T) {
	odd := oddTrace()
	for i, name := range []string{"plain", `quo"te`, "<b>&amp;", "\x00ctl", "bad\xffutf8", "sep line"} {
		odd.Counter(name).Add(int64(i) - 3)
		odd.Gauge(name).Set(math.MaxInt64 - int64(i))
		odd.Histogram(name, []Time{-5, 0, 5}).Observe(int64(i))
	}
	for name, reg := range map[string]*Registry{
		"nil": nil, "empty": New(), "populated": populated(), "odd": odd, "point": benchPoint(),
	} {
		var got bytes.Buffer
		if err := reg.SnapshotJSON(&got); err != nil {
			t.Fatal(err)
		}
		if want := snapshotJSONOracle(reg); got.String() != want {
			t.Errorf("%s: SnapshotJSON differs from the oracle:\n got %s\nwant %s", name, got.String(), want)
		}
	}
}

// TestAppendLinesMatchesOracle feeds the same registry sequence to the
// streamer and its oracle under several line limits: the appended bytes
// must be the oracle's first limit lines joined by commas, and the total
// must count every line, appended or not.
func TestAppendLinesMatchesOracle(t *testing.T) {
	seq := func() []*Registry {
		a := New()
		a.Span(TrackRank, "rank1", "get", 10, 30)
		a.Span(TrackRank, "rank0", "put", 5, 20)
		return []*Registry{a, nil, oddTrace(), New(), populated(), benchPoint(), oddTrace()}
	}
	for _, limit := range []int{0, 1, 2, 5, 40, 1000, math.MaxInt} {
		ts, oracle := NewTraceStreamer(), &streamerOracle{}
		for i, reg := range seq() {
			want := oracle.Emit(reg)
			got, n, total := ts.AppendLines([]byte("pre"), reg, limit)
			if total != len(want) {
				t.Fatalf("limit %d, registry %d: total %d, oracle emits %d", limit, i, total, len(want))
			}
			kept := want[:min(limit, len(want))]
			if n != len(kept) || string(got) != "pre"+strings.Join(kept, ",") {
				t.Fatalf("limit %d, registry %d: appended %d lines\n got %s\nwant pre%s",
					limit, i, n, got, strings.Join(kept, ","))
			}
		}
	}
}
