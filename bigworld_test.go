package repro

import (
	"bufio"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/sweep"
)

var bigWorld = flag.Bool("bigworld", false, "run the p=16384 Fig 9 world and check its peak resident memory")

// bigWorldHWM bounds the peak resident memory of one p=16384 Fig 9 world.
const bigWorldHWM = 2 << 30

// TestBigWorld runs one p=16384 Fig 9 world end to end (async thread, 2
// lane workers) and fails if the process's peak resident memory exceeds
// 2 GB. Enabled by -bigworld (make mem-smoke): the world takes a few
// seconds and hundreds of MB.
func TestBigWorld(t *testing.T) {
	if !*bigWorld {
		t.Skip("run with -bigworld")
	}
	lat := bench.Fig9Point(&sweep.Ctx{Shards: 2, Pool: armci.NewPool()}, 16384, 16, true, false, 2)
	if !(lat > 0) {
		t.Fatalf("mean fetch-and-add latency %v us, want > 0", lat)
	}
	hwm, err := vmHWM()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("p=16384 fig9 world: mean latency %.3f us, VmHWM %d MB", lat, hwm>>20)
	if hwm > bigWorldHWM {
		t.Fatalf("VmHWM %d MB exceeds %d MB", hwm>>20, bigWorldHWM>>20)
	}
}

// vmHWM reads the process's peak resident set size from /proc/self/status.
func vmHWM() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}
