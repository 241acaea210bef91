// Command armci-bench regenerates the paper's communication figures
// (Figs 3-9) plus the Eq 7/8 model validation and the §III.D/§III.E
// ablations, as text tables or CSV.
//
// Usage:
//
//	armci-bench                  # every figure at default scale
//	armci-bench -fig 3           # one figure
//	armci-bench -fig 9 -quick    # reduced process counts
//	armci-bench -csv             # CSV instead of aligned text
//	armci-bench -fig 5 -trace out.json -metrics out.txt
//	                             # also capture a Perfetto-loadable
//	                             # timeline and a metrics dump
//	armci-bench -chaos           # Fig 9 workload under scripted faults
//	armci-bench -chaos -chaos-seed 7
//	armci-bench -parallel 1      # force a fully serial sweep (output is
//	                             # byte-identical at any -parallel value)
//	armci-bench -compose spec.json
//	                             # run a scenario-composition spec ("-"
//	                             # reads stdin) instead of a figure
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func main() {
	fig := flag.String("fig", "all",
		"figure to regenerate: 3,4,5,6,7,8,9,eq,ctx,cons,strided,route,hw or all")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables")
	quick := flag.Bool("quick", false, "reduced sizes/process counts")
	tracePath := flag.String("trace", "", "write Chrome trace_event JSON (Perfetto) to this file")
	metricsPath := flag.String("metrics", "", "write the metrics dump to this file")
	chaos := flag.Bool("chaos", false,
		"run the Fig 9 workload under the scripted fault plan (exercises retry/recovery)")
	chaosSeed := flag.Uint64("chaos-seed", 42, "seed for the -chaos fault plan and jitter")
	composePath := flag.String("compose", "",
		"run a scenario-composition spec (JSON file, - for stdin) instead of a figure")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"sweep worker count (1 = serial); output is byte-identical at any value")
	shards := flag.Int("shards", 0,
		"lane workers inside each simulation (0 = serial engine); "+
			"output is byte-identical at any value")
	flag.Parse()
	if *shards < 0 {
		fmt.Fprintln(os.Stderr, "armci-bench: -shards must be >= 0")
		os.Exit(2)
	}

	// Ctrl-C stops scheduling new sweep points; partial grids are never
	// rendered (the guard in render), and the process exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var reg *obs.Registry
	if *tracePath != "" || *metricsPath != "" {
		reg = obs.New()
	}
	eng := sweep.NewSharded(*parallel, *shards, reg)

	sizes := bench.PowersOfTwo(4, 20) // 16 B .. 1 MB, the paper's range
	iters := 20
	fig7Procs, fig7PerNode, fig7Stride := 2048, 16, 1
	fig9Procs := []int{2, 16, 64, 256, 1024, 4096}
	if *quick {
		sizes = bench.PowersOfTwo(4, 17)
		iters = 5
		fig7Procs, fig7PerNode, fig7Stride = 256, 16, 4
		fig9Procs = []int{2, 16, 64, 256}
	}

	render := func(g *bench.Grid) {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "armci-bench: interrupted")
			os.Exit(130)
		}
		if *csv {
			g.RenderCSV(os.Stdout)
			fmt.Println()
		} else {
			g.Render(os.Stdout)
		}
	}

	if *composePath != "" {
		runCompose(ctx, eng, *composePath, *csv)
		writeObs(reg, *tracePath, *metricsPath)
		return
	}

	if *chaos {
		procs := []int{8, 16, 32}
		if *quick {
			procs = []int{8, 16}
		}
		render(bench.Chaos(ctx, eng, procs, 10, *chaosSeed))
		writeObs(reg, *tracePath, *metricsPath)
		return
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("3") {
		render(bench.Fig3(ctx, eng, sizes, iters))
	}
	if want("4") {
		render(bench.Fig4(ctx, eng, sizes, 16))
	}
	if want("5") {
		render(bench.Fig5(ctx, eng, sizes, iters))
	}
	if want("6") {
		render(bench.Fig6(ctx, eng, sizes, 16))
	}
	if want("7") {
		render(bench.Fig7(ctx, eng, fig7Procs, fig7PerNode, 4, fig7Stride))
	}
	if want("8") {
		render(bench.Fig8(ctx, eng, bench.PowersOfTwo(8, 20), 1<<20))
	}
	if want("9") {
		render(bench.Fig9(ctx, eng, fig9Procs, 10))
	}
	if want("eq") {
		render(bench.EqValidation(ctx, eng, []int{16, 256, 4096, 65536, 1 << 20}, iters))
	}
	if want("ctx") {
		render(bench.AblationContexts(ctx, eng, 100))
	}
	if want("cons") {
		render(bench.AblationConsistency(ctx, eng, 100))
	}
	if want("strided") {
		render(bench.AblationStridedProtocol(ctx, eng, bench.PowersOfTwo(5, 17), 1<<20))
	}
	if want("route") {
		render(bench.AblationRouting(ctx, eng, 32, 64))
	}
	if want("hw") {
		counts := []int{2, 8, 32, 128}
		if !*quick {
			counts = append(counts, 512)
		}
		render(bench.AblationHardwareAMO(ctx, eng, counts, 10))
	}

	writeObs(reg, *tracePath, *metricsPath)
}

// runCompose parses a composition spec, runs it on eng (so
// -parallel/-shards/-trace apply), and renders the artifact. Both
// the bare spec and the POST /v1/compose request envelope
// ({"compose": <spec>, ...}) are accepted, so a server request body
// replays offline unchanged; the output is byte-identical to what a
// simd server caches for the same spec.
func runCompose(ctx context.Context, eng *sweep.Engine, path string, csv bool) {
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "armci-bench: compose: %v\n", err)
		os.Exit(1)
	}
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		fatal(err)
	}
	var env struct {
		Compose json.RawMessage `json:"compose"`
	}
	if json.Unmarshal(raw, &env) == nil && len(env.Compose) > 0 && string(env.Compose) != "null" {
		raw = env.Compose
	}
	sp, err := scenario.Parse(bytes.NewReader(raw))
	if err != nil {
		fatal(err)
	}
	res, err := scenario.Run(ctx, eng, sp)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "armci-bench: interrupted")
			os.Exit(130)
		}
		fatal(err)
	}
	format := "text"
	if csv {
		format = "csv"
	}
	if err := res.Render(os.Stdout, format); err != nil {
		fatal(err)
	}
}

// writeObs dumps the registry's trace and metrics to the requested files.
func writeObs(reg *obs.Registry, tracePath, metricsPath string) {
	if reg == nil {
		return
	}
	emit := func(path string, write func(*os.File) error) {
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "armci-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if tracePath != "" {
		emit(tracePath, func(f *os.File) error { return reg.WriteChromeTrace(f) })
	}
	if metricsPath != "" {
		emit(metricsPath, func(f *os.File) error { return reg.WriteMetrics(f) })
	}
}
