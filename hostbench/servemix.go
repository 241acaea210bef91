package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// serve_mix drives an in-process simd server with a disk store over
// loopback HTTP. Two clients run a closed loop, as simd's own clients
// (simload, ssecat, the scripts) each wait for their reply. Requests are
// small jobs, half legacy /v1/run scenarios and half /v1/compose specs,
// some re-spelled. Most go to a Zipf-skewed hot set that is stored on
// disk before timing starts and is larger than the LRU budget, so they
// are answered from the LRU or from disk; a fixed share asks for a key
// never asked before, a cold run that writes through to the store. The
// cold share is the same all through the request list, so the mix a run
// sees does not depend on how far it gets.
const (
	serveClients = 2
	serveBatch   = 256 // requests per unit of work
	// serveFamilyKeys is the number of distinct jobs in each of the four
	// job families; the key universe is four times that.
	serveFamilyKeys = 2400
	serveKeys       = 4 * serveFamilyKeys
	serveHotKeys    = 512 // Zipf-ranked keys, all stored before timing
	serveZipfS      = 1.1
	serveZipfV      = 2
	serveColdShare  = 0.05     // share of requests for a key never asked before
	serveRespelled  = 0.3      // share of requests sent in a re-spelled form
	serveCacheBytes = 16 << 10 // LRU budget: a few dozen artifacts
	// serveRequests is the request list length, several times what a
	// run on the reference host sends; its cold keys (about 5% of it)
	// fit in the universe left after the hot set.
	serveRequests    = 1 << 17
	serveSetupProbes = 21
)

// serveTiers are the X-Cache answers a solo server gives.
var serveTiers = []string{"hit", "disk", "miss", "shared"}

// job is one logical key's request, in its canonical and its
// re-spelled form; spec is the composition spec for /v1/compose jobs.
type job struct {
	path      string
	body      string
	respelled string
	spec      string
}

// jobFor builds the job of key k. Families alternate legacy fetch-and-
// add (amo) and Fig 3 ping (micro) scenarios on /v1/run with composed
// fetchadd and ping phases on /v1/compose; within a family every key
// has its own parameters (k < serveKeys), so every key is a distinct
// cache entry.
func jobFor(k int) job {
	n := k / 4
	procs := 2 + n%3
	ops := 1 + n/3
	size := 16 << (n % 8)
	iters := 1 + (n/8)%100
	mode := []string{"default", "async", "both"}[(n/800)%3]
	switch k % 4 {
	case 0:
		return job{path: "/v1/run",
			body:      fmt.Sprintf(`{"scenario":"amo","params":{"procs":[%d],"ops_each":%d}}`, procs, ops),
			respelled: fmt.Sprintf(`{"params":{"ops_each":%d,"procs":[%d]},"format":"csv","scenario":"amo"}`, ops, procs)}
	case 1:
		sizes := strconv.Itoa(size)
		for i := 0; i < (n/800)%3; i++ {
			sizes += "," + strconv.Itoa(size<<(i+1))
		}
		return job{path: "/v1/run",
			body:      fmt.Sprintf(`{"scenario":"micro","params":{"sizes":[%s],"iters":%d}}`, sizes, iters),
			respelled: fmt.Sprintf(`{"format":"csv","params":{"iters":%d,"sizes":[%s]},"scenario":"micro"}`, iters, sizes)}
	case 2:
		spec := fmt.Sprintf(`{"phases":[{"pattern":"fetchadd","params":{"ops_each":%d},"topology":{"procs":[%d],"per_node":4},"engine":{"mode":"async"}}]}`, ops, procs)
		return job{path: "/v1/compose", spec: spec,
			body:      `{"compose":` + spec + `}`,
			respelled: fmt.Sprintf(`{"format":"csv","compose":{"version":1,"phases":[{"engine":{"mode":"async"},"topology":{"per_node":4,"procs":[%d]},"params":{"compute":false,"ops_each":%d},"pattern":"fetchadd"}]}}`, procs, ops)}
	default:
		spec := fmt.Sprintf(`{"phases":[{"pattern":"ping","params":{"iters":%d},"sizes":{"kind":"fixed","bytes":%d},"engine":{"mode":"%s"}}]}`, iters, size, mode)
		return job{path: "/v1/compose", spec: spec,
			body:      `{"compose":` + spec + `}`,
			respelled: fmt.Sprintf(`{"compose":{"phases":[{"engine":{"mode":"%s"},"sizes":{"bytes":%d,"kind":"fixed"},"params":{"iters":%d},"pattern":"ping"}],"version":1},"format":"csv"}`, mode, size, iters)}
	}
}

// request is one generated request: a key and whether it is re-spelled.
type request struct {
	key       int
	respelled bool
}

// serveInputs are a run's generated inputs.
type serveInputs struct {
	seeded   []int // the hot set, stored before the timed phase
	requests []request
}

// genServeInputs derives every input of a serve_mix run from the seed:
// which keys form the hot set (in Zipf rank order), the order cold keys
// are first asked for, the request list and which requests are
// re-spelled.
func genServeInputs(seed int64, n int) serveInputs {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(serveKeys)
	hot, cold := perm[:serveHotKeys], perm[serveHotKeys:]
	zipf := rand.NewZipf(rng, serveZipfS, serveZipfV, serveHotKeys-1)
	in := serveInputs{seeded: hot, requests: make([]request, n)}
	for i := range in.requests {
		key := hot[zipf.Uint64()]
		if rng.Float64() < serveColdShare && len(cold) > 0 {
			key, cold = cold[0], cold[1:]
		}
		in.requests[i] = request{key: key, respelled: rng.Float64() < serveRespelled}
	}
	return in
}

// reference holds the first cold answer for each key; every later
// answer must repeat it byte for byte under the same config hash.
type reference struct {
	mu   sync.Mutex
	hash map[int]string
	body map[int][]byte
}

// check compares an answer with the key's reference, recording it as
// the reference if it is the first.
func (ref *reference) check(key int, hash string, body []byte) bool {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	if want, ok := ref.body[key]; ok {
		return bytes.Equal(want, body) && ref.hash[key] == hash
	}
	ref.body[key] = append([]byte(nil), body...)
	ref.hash[key] = hash
	return true
}

// answer is one completed request.
type answer struct {
	latency time.Duration
	tier    string // X-Cache
	ok      bool
}

// liveServer is a serve.Server mounted on a loopback listener.
type liveServer struct {
	srv     *serve.Server
	http    *http.Server
	base    string
	done    chan error
	once    sync.Once
	stopErr error
}

func startServer(opts serve.Options) (*liveServer, error) {
	srv, err := serve.NewServer(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, http: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, nil
}

// stop drains the server and waits for its listener goroutine; calls
// after the first return the first call's error.
func (ls *liveServer) stop() error {
	ls.once.Do(func() {
		ls.srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ls.stopErr = ls.http.Shutdown(ctx)
		ls.srv.Close()
		if err := <-ls.done; !errors.Is(err, http.ErrServerClosed) && ls.stopErr == nil {
			ls.stopErr = err
		}
	})
	return ls.stopErr
}

// waitHealthy polls /healthz until the server reports "ok".
func waitHealthy(client *http.Client, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && bytes.Contains(body, []byte(`"state":"ok"`)) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after 60 s (last error %v)", base, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// send posts one request and checks the answer against the reference.
// Its latency runs from the POST to the last byte of the answer.
func send(client *http.Client, base string, req request, ref *reference, tr *tracer) answer {
	j := jobFor(req.key)
	body := j.body
	if req.respelled {
		body = j.respelled
	}
	start := time.Now()
	resp, err := client.Post(base+j.path, "application/json", strings.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: key %d: %v\n", req.key, err)
		return answer{latency: time.Since(start)}
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	lat := end.Sub(start)
	tr.add("serve.request", 0, start, end)
	a := answer{latency: lat, tier: resp.Header.Get("X-Cache")}
	if err != nil || resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "hostbench: key %d: HTTP %d %v %.200s\n", req.key, resp.StatusCode, err, got)
		return a
	}
	a.ok = ref.check(req.key, resp.Header.Get("X-Config-Hash"), got)
	if !a.ok {
		fmt.Fprintf(os.Stderr, "hostbench: key %d (%s, respelled=%v): answer differs from its first cold answer\n",
			req.key, a.tier, req.respelled)
	}
	return a
}

// canonSpecs times scenario.Parse and Canon of each compose spec in
// reqs, the work /v1/compose does before hashing. A traced run calls it
// before each traced batch, outside the unit, so it is neither in the
// request latencies nor in the profile and runtime counters.
func canonSpecs(tr *tracer, reqs []request) error {
	for _, req := range reqs {
		j := jobFor(req.key)
		if j.spec == "" {
			continue
		}
		c0 := time.Now()
		sp, err := scenario.Parse(strings.NewReader(j.spec))
		if err == nil {
			_, err = sp.Canon()
		}
		tr.add("scenario.canon", 0, c0, time.Now())
		if err != nil {
			return fmt.Errorf("key %d spec: %w", req.key, err)
		}
	}
	return nil
}

// closedLoop sends reqs with serveClients clients, each sending its
// next request only after the previous answer, and returns the answers
// in request order.
func closedLoop(client *http.Client, base string, reqs []request, ref *reference, tr *tracer) []answer {
	out := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = send(client, base, reqs[i], ref, tr)
			}
		}()
	}
	wg.Wait()
	return out
}

// promSums scrapes /metrics and sums each family over its label sets.
func promSums(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

func runServeMix(r *runner) error {
	in := genServeInputs(r.seed, serveRequests)
	dir := filepath.Join(r.out, fmt.Sprintf("serve-store-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := serve.Options{StoreDir: dir, CacheBytes: serveCacheBytes}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	ref := &reference{hash: map[int]string{}, body: map[int][]byte{}}

	// Untimed: cold-run the hot set so it sits in the store.
	ls, err := startServer(opts)
	if err != nil {
		return err
	}
	if err := waitHealthy(client, ls.base); err != nil {
		ls.stop()
		return err
	}
	seedReqs := make([]request, len(in.seeded))
	for i, k := range in.seeded {
		seedReqs[i] = request{key: k}
	}
	for _, a := range closedLoop(client, ls.base, seedReqs, ref, nil) {
		r.check(a.ok, "seeding request failed")
	}
	if err := ls.stop(); err != nil {
		return err
	}

	// Set-up: a server over the seeded store until /healthz says ok,
	// several times; the last one serves the timed phase.
	var setups []float64
	for p := 0; p < serveSetupProbes; p++ {
		t0 := time.Now()
		ls, err = startServer(opts)
		if err != nil {
			return err
		}
		if err := waitHealthy(client, ls.base); err != nil {
			ls.stop()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if p < serveSetupProbes-1 {
			if err := ls.stop(); err != nil {
				return err
			}
		}
	}
	defer ls.stop()

	var lats []float64
	tierLats := map[string][]float64{} // untraced answers only
	tierCount := map[string]int{}      // every answer
	var batches []float64
	var sent int
	for b := 0; r.more(b) && (b+1)*serveBatch <= len(in.requests); b++ {
		reqs := in.requests[b*serveBatch : (b+1)*serveBatch]
		traced := r.tracedUnit(b)
		if traced {
			if err := canonSpecs(r.tr, reqs); err != nil {
				return err
			}
		}
		var answers []answer
		d, err := r.unit(b, func(tr *tracer) (time.Duration, error) {
			t0 := time.Now()
			answers = closedLoop(client, ls.base, reqs, ref, tr)
			return time.Since(t0), nil
		})
		if err != nil {
			return err
		}
		for _, a := range answers {
			r.check(a.ok, "serve_mix request failed")
			tierCount[a.tier]++
			if !traced {
				ms := 1e3 * a.latency.Seconds()
				lats = append(lats, ms)
				tierLats[a.tier] = append(tierLats[a.tier], ms)
			}
		}
		if !traced {
			batches = append(batches, d.Seconds())
			sent += len(reqs)
		}
	}
	if len(batches) == 0 {
		return fmt.Errorf("no untraced batch completed")
	}
	var total float64
	for _, d := range batches {
		total += d
	}
	t := tailPercentile(lats)
	r.e2e.set("setup_s", median(setups), "s")
	r.e2e.set("wall_s", median(batches), "s")
	r.e2e.set("req_per_s", float64(sent)/total, "1/s")
	r.e2e.set("latency_p50_ms", median(lats), "ms")
	r.e2e.set("latency_p99_ms", t.Value, "ms")
	r.note("%d batches of %d requests, %d keys stored before timing; latency tail is p%.4g of %d",
		len(batches), serveBatch, len(in.seeded), t.Pct, t.N)
	units := float64(len(batches) + len(r.tracedUnits))
	var answered float64
	for _, tier := range serveTiers {
		answered += float64(tierCount[tier])
	}
	for _, tier := range serveTiers {
		r.note("tier %-6s %6d answers (%.4f of all), untraced p50 %.3f ms",
			tier, tierCount[tier], float64(tierCount[tier])/max(answered, 1), median(tierLats[tier]))
	}
	if !r.traced {
		return ls.stop()
	}
	for _, tier := range serveTiers {
		r.layer.set("serve.latency_ms."+tier, median(tierLats[tier]), "ms")
		r.layer.set("serve.count."+tier, float64(tierCount[tier])/units, "count")
	}
	canon := r.tr.durations("scenario.canon")
	r.layer.set("scenario.canon_us", 1e6*median(canon), "us")
	prom, err := promSums(client, ls.base)
	if err != nil {
		return err
	}
	// Counters are per unit, as serve.count.* are; the queue's high-water
	// mark and the store's entry count are levels at the end of the run.
	r.layer.set("serve.admission_rejects", prom["serve_admission_rejects"]/units, "count")
	r.layer.set("serve.cache_evictions", prom["serve_cache_evictions"]/units, "count")
	r.layer.set("serve.queue_depth_max", prom["serve_queue_depth_max"], "count")
	r.layer.set("serve.store_entries", prom["serve_store_entries"], "count")
	return ls.stop()
}
