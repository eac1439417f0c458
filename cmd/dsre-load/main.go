// dsre-load drives a dsre-serve daemon the way a crowd of impatient users
// would and verifies the service-level invariants from the daemon's
// GET /v1/sweeps document: N concurrent clients submit the same grid for
// several rounds, every sweep must finish with every job done (nothing
// lost, nothing failed), no point may execute more than once
// (content-addressed dedup: the fresh executions, done minus cache hits
// summed over the sweeps, never exceed the distinct points), and warm
// rounds must hit the cache at or above a threshold rate.
//
//	dsre-load -url http://127.0.0.1:8177 -grid grid.json -clients 4 -rounds 2
//
// Exit codes: 0 all checks pass, 1 an invariant failed, 2 usage or
// communication error.  CI runs it against a daemon as the serve-smoke
// acceptance gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsre-load: "+format+"\n", args...)
	os.Exit(2)
}

// defaultGrid is the built-in tiny grid used when -grid is absent: a few
// fast points with duplicate spellings so dedup is exercised by default.
var defaultGrid = sweep.Grid{
	Workloads: []string{"vecsum"},
	Schemes:   []string{"dsre", "oracle"},
	Sizes:     []int{64},
}

type client struct {
	base string
	http *http.Client
}

func (c *client) submit(tenant string, grid *sweep.Grid) (*serve.SweepView, error) {
	body, err := json.Marshal(serve.SubmitRequest{Schema: serve.SubmitSchema, Grid: grid})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-DSRE-Tenant", tenant)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if resp.StatusCode != http.StatusCreated {
		// Prefer the structured dsre-serve-error/v1 envelope: the code is
		// stable and the trace ID lets an operator grep the daemon's logs.
		var env serve.ErrorResponse
		if jerr := json.Unmarshal(data, &env); jerr == nil && env.Schema == serve.ErrorSchema && env.Code != "" {
			return nil, fmt.Errorf("submit: HTTP %d %s: %s (trace %s)", resp.StatusCode, env.Code, env.Message, env.Trace)
		}
		return nil, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var v serve.SweepView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	return &v, nil
}

func (c *client) sweep(id string) (*serve.SweepView, error) {
	var v serve.SweepView
	if err := c.getJSON("/v1/sweeps/"+id, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(v)
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8177", "daemon base URL")
	gridPath := flag.String("grid", "", "grid JSON to submit (default: built-in tiny grid)")
	clients := flag.Int("clients", 4, "concurrent submitting clients per round")
	rounds := flag.Int("rounds", 2, "submission rounds (round 1 is cold, the rest warm)")
	tenant := flag.String("tenant", "load", "tenant name prefix (each client appends its index)")
	warmRate := flag.Float64("warm-hit-rate", 0.9, "minimum cache-hit rate required of warm rounds")
	poll := flag.Duration("poll", 100*time.Millisecond, "sweep status poll interval")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall deadline")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}

	grid := defaultGrid
	if *gridPath != "" {
		g, err := sweep.ReadGrid(*gridPath)
		if err != nil {
			fatalf("%v", err)
		}
		grid = *g
	}
	specs, err := grid.Expand()
	if err != nil {
		fatalf("%v", err)
	}
	distinct := map[string]bool{}
	for _, spec := range specs {
		h, herr := spec.Hash()
		if herr != nil {
			fatalf("spec %s: %v", spec.Name(), herr)
		}
		distinct[h] = true
	}

	c := &client{base: strings.TrimRight(*url, "/"), http: &http.Client{Timeout: 30 * time.Second}}
	deadline := time.Now().Add(*timeout)
	start := time.Now()

	type roundStat struct {
		ids     []string
		elapsed time.Duration
	}
	var stats []roundStat
	var latencies []time.Duration // per-sweep submit-to-done wall time
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(os.Stderr, "dsre-load: FAIL: "+format+"\n", args...)
	}

	for round := 1; round <= *rounds; round++ {
		roundStart := time.Now()
		ids := make([]string, *clients)
		submitted := make([]time.Time, *clients)
		errsCh := make(chan error, *clients)
		var wg sync.WaitGroup
		for i := 0; i < *clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				submitted[i] = time.Now()
				v, err := c.submit(fmt.Sprintf("%s-%d", *tenant, i), &grid)
				if err != nil {
					errsCh <- err
					return
				}
				ids[i] = v.Sweep
				if v.Trace == "" {
					errsCh <- fmt.Errorf("sweep %s: submit response carries no trace ID", v.Sweep)
				}
			}(i)
		}
		wg.Wait()
		close(errsCh)
		for err := range errsCh {
			fatalf("round %d: %v", round, err)
		}

		// Poll every sweep of the round to completion.
		for i, id := range ids {
			for {
				if time.Now().After(deadline) {
					fatalf("round %d: timeout waiting for sweep %s", round, id)
				}
				v, err := c.sweep(id)
				if err != nil {
					fatalf("round %d: %v", round, err)
				}
				if v.Finished {
					latencies = append(latencies, time.Since(submitted[i]))
					break
				}
				time.Sleep(*poll)
			}
		}
		stats = append(stats, roundStat{ids: ids, elapsed: time.Since(roundStart)})
	}

	// Every invariant reads the daemon's own sweep list.
	var list serve.SweepListView
	if err := c.getJSON("/v1/sweeps", &list); err != nil {
		fatalf("%v", err)
	}
	listed := map[string]serve.SweepView{}
	for _, v := range list.Sweeps {
		listed[v.Sweep] = v
	}

	// Per sweep: nothing lost (listed, finished, done == total), nothing
	// failed, and warm rounds nearly all cache hits.  Across sweeps: the
	// fresh executions never exceed the distinct points.
	executions, hitsTotal := 0, 0
	for r, st := range stats {
		for _, id := range st.ids {
			v, ok := listed[id]
			if !ok {
				fail("sweep %s: missing from GET /v1/sweeps (lost)", id)
				continue
			}
			executions += v.Done - v.CacheHits
			hitsTotal += v.CacheHits
			if !v.Finished {
				fail("sweep %s: not finished after polling reported it finished", id)
			}
			if v.Total != len(specs) {
				fail("sweep %s: total %d, submitted %d", v.Sweep, v.Total, len(specs))
			}
			if v.Failed != 0 {
				fail("sweep %s: %d of %d jobs failed", v.Sweep, v.Failed, v.Total)
			}
			if v.Done+v.Failed != v.Total {
				fail("sweep %s: done %d + failed %d of %d (lost jobs)", v.Sweep, v.Done, v.Failed, v.Total)
			}
			if r > 0 {
				rate := float64(v.CacheHits) / float64(v.Total)
				if rate < *warmRate {
					fail("sweep %s (warm round %d): cache-hit rate %.2f < %.2f", v.Sweep, r+1, rate, *warmRate)
				}
			}
		}
	}

	if executions > len(distinct) {
		fail("%d fresh executions for %d distinct points (duplicated work)", executions, len(distinct))
	}

	total := time.Since(start)
	specsDone := *clients * *rounds * len(specs)
	fmt.Printf("dsre-load: %d rounds x %d clients x %d specs = %d specs in %s (%.1f specs/s)\n",
		*rounds, *clients, len(specs), specsDone, total.Round(time.Millisecond),
		float64(specsDone)/total.Seconds())
	for r, st := range stats {
		hits, tot := 0, 0
		for _, id := range st.ids {
			hits += listed[id].CacheHits
			tot += listed[id].Total
		}
		kind := "cold"
		if r > 0 {
			kind = "warm"
		}
		fmt.Printf("  round %d (%s): %s, cache-hit rate %.2f (%d/%d)\n",
			r+1, kind, st.elapsed.Round(time.Millisecond), float64(hits)/float64(tot), hits, tot)
	}
	fmt.Printf("  daemon: %d fresh executions for %d distinct points, %d cache hits\n",
		executions, len(distinct), hitsTotal)
	fmt.Printf("  latency (submit to done, %d sweeps): p50 %s  p95 %s  p99 %s\n",
		len(latencies),
		percentile(latencies, 50).Round(time.Millisecond),
		percentile(latencies, 95).Round(time.Millisecond),
		percentile(latencies, 99).Round(time.Millisecond))

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "dsre-load: %d invariant(s) failed\n", failures)
		os.Exit(1)
	}
	fmt.Println("dsre-load: all invariants hold")
}

// percentile returns the nearest-rank p-th percentile of ds (0 when empty).
func percentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n), nearest-rank
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
