package armci

import "repro/internal/sim"

// Pool recycles the kernel's event heap/ring arrays across simulation
// runs: repeated sweep points stop re-allocating the queues and the next
// run adopts the previous run's warmed capacity. Worlds keep no other
// per-run storage worth recycling — region caches and peer state are
// sparse.
//
// A Pool is purely a host-memory optimization; a run with a Pool is
// simulated identically, event for event, to a run without one. It is
// not safe for concurrent use: give each sweep worker its own Pool (the
// sweep engine does exactly that). The nil *Pool is a valid no-op.
type Pool struct {
	sim sim.Spares
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// kernel builds a simulation kernel, reusing spare queue arrays if any.
func (p *Pool) kernel() *sim.Kernel {
	if p == nil {
		return sim.NewKernel()
	}
	return sim.NewKernelWith(&p.sim)
}

// putKernel harvests a finished kernel's backing arrays.
func (p *Pool) putKernel(k *sim.Kernel) {
	if p != nil {
		k.Recycle(&p.sim)
	}
}
