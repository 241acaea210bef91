// Command tables regenerates Table II (the empirical PAMI time/space
// attribute values) and prints the partition geometry used by each
// experiment scale (the Eq 10 factorization).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/bench"
	"repro/internal/sweep"
	"repro/internal/topology"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"sweep worker count (1 = serial); output is byte-identical at any value")
	flag.Parse()

	g := bench.TableII()
	if *csv {
		g.RenderCSV(os.Stdout)
	} else {
		g.Render(os.Stdout)
	}

	// Each factorization is independent; compute them across the sweep
	// workers and print by process-count index so the order is fixed.
	procCounts := []int{2, 64, 256, 1024, 2048, 4096}
	lines := sweep.Map(sweep.New(*parallel, nil), len(procCounts), func(_ *sweep.Ctx, i int) string {
		p := procCounts[i]
		tor := topology.ForProcs(p, 16)
		return fmt.Sprintf("%5d procs: %v  (max %d hops)", p, tor, tor.MaxHops())
	})
	fmt.Println("== partition factorizations (ABCDE x T) ==")
	for _, line := range lines {
		fmt.Println(line)
	}
}
