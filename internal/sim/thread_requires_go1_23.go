//go:build !go1.23

package sim

// Sim threads are iter.Pull coroutines (thread.go), which need Go 1.23.
// This reference fails to compile on an older toolchain, so the error
// names the requirement instead of reporting "undefined: Thread".
var _ = sim_requires_go1_23_for_iter_Pull
