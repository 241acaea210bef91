package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// deprecationRecorder is a RoundTripper that remembers every response
// that carried a Deprecation header (the server's mark on its legacy
// unversioned routes).
type deprecationRecorder struct {
	mu   sync.Mutex
	hits []string
}

func (d *deprecationRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.Header.Get("Deprecation") != "" {
		d.mu.Lock()
		d.hits = append(d.hits, req.Method+" "+req.URL.Path)
		d.mu.Unlock()
	}
	return resp, err
}

// TestSubmitFollowUsesV1 drives submit and follow against a real
// server: the artifact must reassemble to the bytes a synchronous
// /v1/run returns, and no request may land on a deprecated route.
func TestSubmitFollowUsesV1(t *testing.T) {
	srv := serve.New(serve.Options{Workers: 1, SweepWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	rec := &deprecationRecorder{}
	client := &http.Client{Transport: rec, Timeout: time.Minute}

	const job = `{"scenario":"micro","params":{"sizes":[16,256],"iters":2}}`
	id, err := submit(client, ts.URL, job)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := follow(client, ts.URL, id)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte(job)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var want bytes.Buffer
	if _, err := want.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/run: HTTP %d: %s", resp.StatusCode, want.Bytes())
	}
	if len(artifact) == 0 || !bytes.Equal(artifact, want.Bytes()) {
		t.Fatalf("reassembled %d bytes, want the %d-byte /v1/run body", len(artifact), want.Len())
	}
	if len(rec.hits) > 0 {
		t.Fatalf("requests hit deprecated routes: %v", rec.hits)
	}
}
