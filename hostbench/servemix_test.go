package main

import (
	"reflect"
	"testing"
)

func TestServeInputsAreSeeded(t *testing.T) {
	a, b := genServeInputs(7, 5000), genServeInputs(7, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	c := genServeInputs(8, 5000)
	if reflect.DeepEqual(a.requests, c.requests) || reflect.DeepEqual(a.seeded, c.seeded) {
		t.Fatal("different seeds generated the same request list or seeded set")
	}
}

func TestServeInputsMixTiersEvenly(t *testing.T) {
	in := genServeInputs(1, serveRequests)
	hot := map[int]bool{}
	for _, k := range in.seeded {
		hot[k] = true
	}
	seen := map[int]bool{}
	var cold [2]int // first-time keys in each half of the list
	var respelled int
	for i, r := range in.requests {
		if r.key < 0 || r.key >= serveKeys {
			t.Fatalf("key %d outside the universe", r.key)
		}
		if !hot[r.key] {
			if seen[r.key] {
				t.Fatalf("request %d repeats cold key %d", i, r.key)
			}
			cold[2*i/len(in.requests)]++
		}
		seen[r.key] = true
		if r.respelled {
			respelled++
		}
	}
	// Cold keys arrive at the same rate all through the list, so a run's
	// tier mix does not depend on how many batches it gets through.
	want := serveColdShare * float64(len(in.requests)) / 2
	for h, n := range cold {
		if float64(n) < 0.9*want || float64(n) > 1.1*want {
			t.Errorf("half %d of the list has %d cold keys, want about %.0f", h, n, want)
		}
	}
	if respelled == 0 {
		t.Error("no request is re-spelled")
	}
}

func TestJobsAreDistinct(t *testing.T) {
	seen := map[string]int{}
	for k := 0; k < serveKeys; k++ {
		j := jobFor(k)
		if prev, ok := seen[j.body]; ok {
			t.Fatalf("keys %d and %d share the request %s", prev, k, j.body)
		}
		seen[j.body] = k
	}
}
