package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/armci"
	"repro/internal/nwchem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The NWChem SCF proxy (6 waters, 644 basis functions, one iteration)
// at 256 ranks on the serial lane engine: 14706 get-compute-accumulate
// tasks and millions of host allocations, with world set-up under 2% of
// the host time. Host time goes to the event kernel, thread switches,
// network, PAMI progress and GA.
const (
	scfProcs   = 256
	scfPerNode = 16
	scfTasks   = 14706
	// scfSetupProbes is how many bare worlds of each mode's
	// configuration are built before every pass, untimed by the pass, to
	// time set-up (nwchem.Experiment builds its world internally, out of
	// the benchmark's reach).
	scfSetupProbes = 8
)

// scfRef is the result the simulator gave for this configuration when
// the benchmark was written, by mode (true: Async Thread).
var scfRef = map[bool]struct {
	energy float64
	wall   sim.Time
}{
	false: {-2005553586, 2380304190},
	true:  {-2005553586, 1394162686},
}

func scfConfig(async bool, reg *obs.Registry) armci.Config {
	return armci.Config{Procs: scfProcs, ProcsPerNode: scfPerNode, AsyncThread: async, Obs: reg}
}

// setupProbe times world set-up on its own: NewWorld, Start, and the
// first collective Malloc, then runs the (empty) rest of the job.
func setupProbe(cfg armci.Config) (time.Duration, error) {
	mallocked := &lastOf{want: int64(cfg.Procs)}
	start := time.Now()
	k := sim.NewKernel()
	w, err := armci.NewWorld(k, cfg)
	if err != nil {
		return 0, err
	}
	w.Start(func(th *sim.Thread, rt *armci.Runtime) {
		rt.Malloc(th, 16)
		mallocked.arrive()
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	return mallocked.time().Sub(start), nil
}

func runSCF(r *runner) error {
	rng := rand.New(rand.NewSource(r.seed))
	acc := newSimAcc()
	scfg := nwchem.DefaultConfig()
	scfg.Iterations = 1
	for i := 0; r.more(i); i++ {
		order := modeOrder(rng)
		runtime.GC() // the last pass's worlds, so probes see a quiet heap
		for _, async := range order {
			for p := 0; p < scfSetupProbes; p++ {
				s, err := setupProbe(scfConfig(async, nil))
				if err != nil {
					return err
				}
				acc.setups = append(acc.setups, s.Seconds())
			}
		}
		d, err := r.unit(i, func(tr *tracer) (time.Duration, error) {
			pass := tr.begin("scf.pass", 0)
			defer tr.end(pass)
			var took time.Duration
			for _, async := range order {
				if err := r.collect(tr); err != nil {
					return 0, err
				}
				var reg *obs.Registry
				if tr != nil {
					reg = traceRegistry()
				}
				t0 := time.Now()
				res := nwchem.Experiment(scfConfig(async, reg), scfg)
				t1 := time.Now()
				took += t1.Sub(t0)
				ref := scfRef[async]
				r.check(res.Energy == ref.energy && res.WallTime == ref.wall && res.Tasks == scfTasks,
					"scf_p256 async=%v energy %v wall %d ns tasks %d, reference %v, %d ns, %d tasks",
					async, res.Energy, res.WallTime, res.Tasks, ref.energy, ref.wall, scfTasks)
				tr.add("nwchem.experiment", pass, t0, t1)
				if reg != nil {
					if err := acc.addTraced(reg, 0, t1.Sub(t0).Seconds()); err != nil {
						return 0, err
					}
					acc.counts["nwchem.tasks"] += float64(res.Tasks)
				}
			}
			return took, nil
		})
		if err != nil {
			return err
		}
		if r.tracedUnit(i) {
			acc.traced++
		} else {
			acc.passes = append(acc.passes, d.Seconds())
		}
	}
	if len(acc.passes) == 0 {
		return fmt.Errorf("no untraced pass completed")
	}
	acc.report(r, 2*scfTasks)
	if r.traced {
		exp := median(r.tr.durations("nwchem.experiment"))
		r.layer.set("nwchem.experiment_s", exp, "s")
		r.layer.set("sim.run_s", exp, "s") // the SCF job is all simulation past its <2% set-up
	}
	return nil
}
