package main

// profile.go folds a runtime/pprof CPU profile into per-layer self-time
// shares. The profile is gzip-compressed protobuf (the pprof
// profile.proto schema); only the handful of fields folding needs are
// decoded here, so the benchmark needs nothing outside the standard
// library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers is the order the cpu.* metrics are reported in.
var cpuLayers = []string{"sim", "network", "pami", "armci", "ga", "nwchem", "mem", "obs",
	"scenario", "serve", "gc", "sched", "other"}

// repoLayer maps a package of this repository onto its layer. mem is
// the simulated address space every RDMA copy and GA access goes
// through; obs is the instrumentation a traced run turns on, so its
// share is part of the tracing overhead. Packages not listed (bench,
// sweep, fault, the benchmark itself, ...) fold into "other".
var repoLayer = map[string]string{
	"repro/internal/mem":      "mem",
	"repro/internal/obs":      "obs",
	"repro/internal/sim":      "sim",
	"repro/internal/network":  "network",
	"repro/internal/topology": "network", // routes are part of the network model
	"repro/internal/pami":     "pami",
	"repro/internal/armci":    "armci",
	"repro/internal/ga":       "ga",
	"repro/internal/nwchem":   "nwchem",
	"repro/internal/scenario": "scenario",
	"repro/internal/serve":    "serve",
	"repro/internal/cluster":  "serve",
}

// gcRoots are runtime functions whose presence anywhere on a stack marks
// the sample as garbage-collector work (background marking, sweeping,
// and the mark assists mutators are drafted into).
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.gcStart",
	"runtime.sweepone", "runtime.deductSweepCredit",
}

// schedFuncs are runtime leaf functions (by prefix) that belong to
// goroutine scheduling and handoff: parking, waking, channel and
// select operations, and the OS calls that park threads.
var schedFuncs = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.mcall", "runtime.gogo",
	"runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.stealWork",
	"runtime.runqget", "runtime.runqgrab", "runtime.runqput", "runtime.runqsteal",
	"runtime.lock2", "runtime.unlock2", "runtime.chansend", "runtime.chanrecv",
	"runtime.selectgo", "runtime.procyield", "runtime.osyield", "runtime.usleep",
	"runtime.netpoll", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.mPark", "runtime.casgstatus", "runtime.execute", "runtime.checkTimers",
	"runtime.resetspinning", "runtime.handoffp", "runtime.acquirep", "runtime.releasep",
	"runtime.send", "runtime.recv", "runtime.semacquire", "runtime.semrelease",
	"runtime.goschedImpl", "runtime.gosched_m", "runtime.entersyscall", "runtime.exitsyscall",
}

// layerOf folds one sample's stack (leaf first) into a layer: the leaf
// frame's package when it is one of this repository's layers;
// garbage-collector or scheduler work when the stack says so; and for a
// leaf in the runtime or the standard library (an allocation, a copy, a
// map lookup, a syscall), the nearest calling frame from this
// repository, since that layer asked for the work. Failing that, the
// HTTP server's connection loop counts as serve, a stack made only of
// runtime frames as the scheduler's, and anything else as "other".
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	for _, f := range stack {
		for _, g := range gcRoots {
			if f == g || strings.HasPrefix(f, g+".") {
				return "gc"
			}
		}
	}
	if strings.HasPrefix(stack[0], "runtime.") {
		for _, s := range schedFuncs {
			if stack[0] == s || strings.HasPrefix(stack[0], s+".") {
				return "sched"
			}
		}
	}
	for _, f := range stack {
		pkg := funcPackage(f)
		if l, ok := repoLayer[pkg]; ok {
			return l
		}
		if strings.HasPrefix(pkg, "repro/") {
			return "other"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "net/http.(*conn).") {
			return "serve" // the HTTP server loop simd's handlers run under
		}
	}
	for _, f := range stack {
		if !strings.HasPrefix(f, "runtime.") {
			return "other"
		}
	}
	return "sched" // a runtime-only stack: the scheduler loop, timers, sysmon
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/sim.(*Kernel).Run" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldProfile adds every sample of a gzip-compressed pprof CPU profile
// to shares, keyed by layer and weighted by sampled CPU nanoseconds.
func foldProfile(data []byte, shares map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.name(fid))
			}
		}
		w := int64(1)
		if len(s.values) > 1 {
			w = s.values[1] // cpu nanoseconds
		} else if len(s.values) == 1 {
			w = s.values[0]
		}
		shares[layerOf(stack)] += w
	}
	return nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

// profData is the decoded subset of a profile: samples, each location's
// functions (innermost inlined frame first), function names as string
// table indexes, and the string table.
type profData struct {
	samples  []profSample
	locFuncs map[uint64][]uint64
	funcName map[uint64]int64
	strings  []string
}

// Field numbers in profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

// name returns a function's symbol name ("" for an unknown function).
func (p *profData) name(fid uint64) string {
	return p.strings[p.funcName[fid]]
}

func decodeProfile(b []byte) (*profData, error) {
	p := &profData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case fProfileSample:
			var s profSample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, v, m)
				case fSampleValue:
					for _, u := range appendVarints(nil, v, m) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(m, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.strings) == 0 {
		p.strings = []string{""} // index 0 is the empty string by definition
	}
	for id, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values, whether it
// arrived as one varint (v) or packed into a length-delimited run (msg).
func appendVarints(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		u, n := binary.Uvarint(msg)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		msg = msg[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or, for length-delimited fields,
// its bytes (msg non-nil). Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1: // 64-bit
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		case 5: // 32-bit
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}
