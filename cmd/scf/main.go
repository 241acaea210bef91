// Command scf regenerates Fig 11: the NWChem Self Consistent Field proxy
// (6 water molecules, 644 basis functions) with Default versus
// Asynchronous-Thread progress across process counts.
//
// Usage:
//
//	scf                      # paper scale: 1024, 2048, 4096 processes
//	scf -quick               # 64/128/256 processes, fewer iterations
//	scf -procs 512 -iters 2  # custom single point
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/nwchem"
	"repro/internal/sweep"
)

func main() {
	quick := flag.Bool("quick", false, "reduced scale for fast runs")
	procs := flag.String("procs", "", "comma-separated process counts (overrides defaults)")
	iters := flag.Int("iters", 0, "SCF iterations (default 4, quick 2)")
	csv := flag.Bool("csv", false, "emit CSV")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"sweep worker count (1 = serial); output is byte-identical at any value")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	counts := []int{1024, 2048, 4096}
	cfg := nwchem.DefaultConfig()
	if *quick {
		counts = []int{64, 128, 256}
		cfg.Iterations = 2
	}
	if *iters > 0 {
		cfg.Iterations = *iters
	}
	if *procs != "" {
		counts = counts[:0]
		for _, s := range strings.Split(*procs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 2 {
				fmt.Fprintf(os.Stderr, "bad -procs entry %q\n", s)
				os.Exit(2)
			}
			counts = append(counts, v)
		}
	}

	g := bench.Fig11(ctx, sweep.New(*parallel, nil), counts, 16, cfg)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "scf: interrupted")
		os.Exit(130)
	}
	if *csv {
		g.RenderCSV(os.Stdout)
	} else {
		g.Render(os.Stdout)
	}
}
