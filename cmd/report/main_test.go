package main

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sweep"
)

// TestRunChecksCancelled: a Ctrl-C before (or during) the first sweep
// must surface as context.Canceled — main turns it into exit 130 — and
// never as a panic on a figure the cancelled sweep did not build.
func TestRunChecksCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	checks, err := runChecks(ctx, sweep.New(1, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runChecks on a cancelled context: err = %v, want context.Canceled", err)
	}
	if checks != nil {
		t.Fatalf("runChecks on a cancelled context returned %d checks, want none", len(checks))
	}
}
