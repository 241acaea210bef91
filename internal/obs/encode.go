package obs

import (
	"encoding/json"
	"strconv"
)

// The exporters build their JSON by appending into byte slices. Every
// byte matches what encoding/json and fmt's %d would have written; the
// fmt/json reference encoders live on in the package tests as oracles
// the fuzzers compare against.

// appendJSONString appends s as a JSON string literal, byte-identical to
// json.Marshal(s). Plain ASCII is copied as is; a string holding any
// byte encoding/json would escape or replace (control characters, '"',
// '\\', the HTML-sensitive '<', '>', '&', and every byte >= 0x7f, which
// covers invalid UTF-8 and U+2028/U+2029) is handed to json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil {
				panic(err) // strings always marshal
			}
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendMicros appends virtual nanoseconds as microseconds with exact
// nanosecond resolution, byte-identical to fmt's "%d.%03d" of
// (ns/1000, ns%1000) — including its rendering of negative values, where
// Go's truncated remainder keeps its sign ("-1.-500", "0.-05").
func appendMicros(b []byte, ns Time) []byte {
	b = strconv.AppendInt(b, ns/1000, 10)
	b = append(b, '.')
	frac := ns % 1000
	if frac < 0 {
		// %03d pads after the sign: width 3 leaves two digits.
		b = append(b, '-')
		frac = -frac
		if frac < 10 {
			b = append(b, '0')
		}
		return strconv.AppendInt(b, frac, 10)
	}
	if frac < 100 {
		b = append(b, '0')
	}
	if frac < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, frac, 10)
}

// appendChromeEvent appends one retained record as a single-line Chrome
// trace_event JSON object (shared by WriteChromeTrace and the streaming
// TraceStreamer): an "X" complete event for a span, an "i" instant
// otherwise, times in microseconds.
func appendChromeEvent(b []byte, rec *spanRec, pid, tid int) []byte {
	if rec.phase == 'X' {
		b = append(b, `{"ph":"X","pid":`...)
	} else {
		b = append(b, `{"ph":"i","pid":`...)
	}
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, rec.start)
	if rec.phase == 'X' {
		b = append(b, `,"dur":`...)
		b = appendMicros(b, rec.end-rec.start)
	} else {
		b = append(b, `,"s":"t"`...)
	}
	b = append(b, `,"name":`...)
	b = appendJSONString(b, rec.name)
	if rec.cat != "" {
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, rec.cat)
	}
	if rec.hasArg {
		b = append(b, `,"args":{"arg":`...)
		b = strconv.AppendInt(b, rec.arg, 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendChromeMeta appends a process_name/thread_name metadata event.
func appendChromeMeta(b []byte, pid, tid int, kind, name string) []byte {
	b = append(b, `{"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"name":`...)
	b = appendJSONString(b, kind)
	b = append(b, `,"args":{"name":`...)
	b = appendJSONString(b, name)
	return append(b, "}}"...)
}
