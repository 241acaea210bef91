package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// pb builds protobuf messages for synthetic profiles.
type pb struct{ b []byte }

func (p *pb) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wire)) }

func (p *pb) varint(field int, v uint64) *pb {
	p.key(field, 0)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, msg []byte) *pb {
	p.key(field, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(msg)))
	p.b = append(p.b, msg...)
	return p
}

func (p *pb) packed(field int, vs ...uint64) *pb {
	var run []byte
	for _, v := range vs {
		run = binary.AppendUvarint(run, v)
	}
	return p.bytes(field, run)
}

// synthProfile encodes a gzipped CPU profile whose samples have the
// given stacks (leaf first) and CPU nanoseconds. Odd samples list their
// locations unpacked, as some encoders do; location 1 carries two
// functions, an inlined leaf and its caller.
func synthProfile(t *testing.T, stacks [][]string, nanos []int64) []byte {
	t.Helper()
	strs := []string{""}
	funcID := map[string]uint64{}
	var p pb
	for i, st := range stacks {
		var locs []uint64
		for _, fn := range st {
			id, ok := funcID[fn]
			if !ok {
				strs = append(strs, fn)
				id = uint64(len(funcID) + 1)
				funcID[fn] = id
				var f pb
				f.varint(fFunctionID, id).varint(fFunctionName, uint64(len(strs)-1))
				p.bytes(fProfileFunction, f.b)
				var line pb
				line.varint(fLineFunction, id)
				var loc pb
				loc.varint(fLocationID, id).bytes(fLocationLine, line.b)
				p.bytes(fProfileLocation, loc.b)
			}
			locs = append(locs, id)
		}
		var s pb
		if i%2 == 0 {
			s.packed(fSampleLocation, locs...)
		} else {
			for _, l := range locs {
				s.varint(fSampleLocation, l)
			}
		}
		s.packed(fSampleValue, 1, uint64(nanos[i]))
		p.bytes(fProfileSample, s.b)
	}
	for _, s := range strs {
		p.bytes(fProfileStrings, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldProfileByLeafPackage(t *testing.T) {
	stacks := [][]string{
		{"repro/internal/sim.(*Kernel).Run", "main.main"},
		{"runtime.mallocgc", "repro/internal/pami.(*Context).Advance", "repro/internal/sim.(*Thread).run"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/armci.(*Runtime).Get"},
		{"runtime.chansend", "repro/internal/sim.(*Thread).Yield"},
		{"runtime.findRunnable", "runtime.schedule", "runtime.mstart"},
		{"syscall.Syscall", "net/http.(*persistConn).writeLoop"},
		{"syscall.Syscall", "net.(*conn).Write", "net/http.(*conn).serve"},
		{"encoding/json.(*decodeState).object", "repro/internal/serve.(*Server).handleRun"},
		{"repro/internal/bench.fig9Grid", "repro/internal/sweep.MapCtx"},
		{"runtime.memmove", "repro/internal/mem.(*Space).CopyOut", "repro/internal/pami.(*Context).Put"},
	}
	nanos := []int64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100}
	got := map[string]int64{}
	if err := foldProfile(synthProfile(t, stacks, nanos), got); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"sim":   100,
		"pami":  200,       // an allocation is charged to the layer that asked for it
		"gc":    300 + 400, // background marking and mark assists
		"sched": 500 + 600, // channel handoff and the scheduler loop
		"other": 700 + 1000,
		"serve": 800 + 900,
		"mem":   1100,
	}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("layer %s: got %d ns, want %d (all: %v)", l, got[l], v, got)
		}
	}
	for l := range got {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected layer %s = %d", l, got[l])
		}
	}
}

func TestFoldProfileReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(50 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := foldProfile(buf.Bytes(), map[string]int64{}); err != nil {
		t.Fatal(err)
	}
}

func spin(d time.Duration) {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		x++
	}
	_ = x
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if err := foldProfile([]byte("not a profile"), map[string]int64{}); err == nil {
		t.Fatal("folding a non-gzip input succeeded")
	}
	var p pb
	p.key(fProfileSample, 2)
	p.b = append(p.b, 0x7f) // declares 127 bytes, has none
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	zw.Close()
	if err := foldProfile(buf.Bytes(), map[string]int64{}); err == nil {
		t.Fatal("folding a truncated profile succeeded")
	}
}
