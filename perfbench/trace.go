package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/emu"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The traced run drives the workload's specs through the same layers the
// sweep engine does, but calls each layer's public function itself and
// records one span per call.  Nothing inside the program is instrumented:
// a span covers exactly one call, timed from the benchmark's side.

// Span names, one per layer entry point.  The root span of a job covers
// every call made for that spec plus the benchmark's own bookkeeping, which
// stands in for the engine's.
const (
	spanJob   = "sweep.job"
	spanHash  = "sweep.hash"      // JobSpec.Hash
	spanGet   = "sweep.store_get" // DirStore.Get
	spanPut   = "sweep.store_put" // DirStore.Put (seal and write)
	spanBuild = "workload.build"  // workload.Build
	spanEmu   = "emu.golden"      // (*Workload).RunEmulator
	spanSim   = "sim.run"         // repro.RunPrepared
)

var spanOrder = []string{spanJob, spanHash, spanGet, spanBuild, spanEmu, spanSim, spanPut}

// span is one recorded call.  Spans of one job share its ID; parent is
// the enclosing span's id, 0 for a job's root.
type span struct {
	round, job int
	id, parent int
	name       string
	warm       bool
	start, end time.Duration // since the tracer's origin
}

// tracer keeps every span in memory; they are written when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	jobs   int
}

func (t *tracer) begin(round, job, parent int, name string, warm bool) int {
	t.spans = append(t.spans, span{round: round, job: job, id: len(t.spans) + 1, parent: parent,
		name: name, warm: warm, start: time.Since(t.origin)})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].end = time.Since(t.origin) }

// selfTimes returns each span's duration minus the part of it that its
// direct children cover, indexed like spans.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// simCost is the host cost of the traced simulations: time inside
// repro.RunPrepared per spec, and the runtime's allocation and GC counters
// across those calls.
type simCost struct {
	runNS       []time.Duration // per spec, summed over rounds
	allocBytes  uint64
	gcCycles    uint64
	goldenInsts int64 // instructions the traced golden runs executed
}

var memSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func readMem() (alloc, gc uint64) {
	metrics.Read(memSamples)
	return memSamples[0].Value.Uint64(), memSamples[1].Value.Uint64()
}

// traced alternates an untraced round (the engine, as endToEnd runs it)
// with a traced round over the same specs, for the run's seconds, and
// reports every per-layer metric.
func (b *bench) traced(m map[string]metric) error {
	tr := &tracer{origin: time.Now()}
	b.tr = tr
	cost := &simCost{runNS: make([]time.Duration, len(b.specs))}
	var tracedWall, recordBytes []float64
	rounds, err := b.rounds(1, func(r int) error {
		wall, bytes, err := b.tracedRound(tr, r, cost)
		tracedWall = append(tracedWall, wall.Seconds())
		recordBytes = append(recordBytes, bytes)
		return err
	})
	if err != nil {
		return err
	}
	n := float64(len(rounds))

	self := selfTimes(tr.spans)
	type layer struct {
		calls int
		self  time.Duration
	}
	layers := map[string]*layer{}
	var getWarm layer
	for i, s := range tr.spans {
		key := s.name
		if key == spanJob && s.warm {
			key = spanJob + ".warm"
		}
		l := layers[key]
		if l == nil {
			l = &layer{}
			layers[key] = l
		}
		l.calls++
		l.self += self[i]
		if s.name == spanGet && s.warm {
			getWarm.calls++
			getWarm.self += self[i]
		}
	}
	get := func(name string) layer {
		if l := layers[name]; l != nil {
			return *l
		}
		return layer{}
	}
	msPerRound := func(name string) float64 { return get(name).self.Seconds() * 1e3 / n }
	usPerCall := func(l layer) float64 { return ratio(l.self.Seconds()*1e6, float64(l.calls)) }

	sim := b.counters()
	t := b.throughput(rounds)
	var plain []float64
	warmHits, warmSpecs := 0, 0
	for _, rs := range rounds {
		cold := 0.0
		for _, x := range rs.batch {
			cold += x
		}
		plain = append(plain, cold)
		warmHits += rs.warmHits
		warmSpecs += rs.warmSpecs
	}
	simNS := float64(get(spanSim).self.Nanoseconds())
	perVio, perKernel := b.recoveryCost(cost, n)

	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	put("workload.build_ms", "ms", msPerRound(spanBuild))
	put("emu.golden_ms", "ms", msPerRound(spanEmu))
	put("emu.minsts_per_s", "Minst/s", ratio(float64(cost.goldenInsts), get(spanEmu).self.Seconds()*1e6))
	put("sim.run_ms", "ms", msPerRound(spanSim))
	put("sim.ns_per_cycle", "ns", ratio(simNS, n*float64(sim.cycles)))
	put("sim.ns_per_inst", "ns", ratio(simNS, n*float64(sim.insts)))
	put("sim.raw_minsts_per_s", "Minst/s", t.sim.raw)
	put("sim.norm_minsts_per_s", "Minst/s", t.sim.norm)
	put("sim.alloc_bytes_per_kinst", "B/kinst", ratio(float64(cost.allocBytes), n*float64(sim.insts)/1e3))
	put("sim.gc_cycles", "count", float64(cost.gcCycles)/n)
	for _, c := range sim.named {
		put(c.name, c.unit, c.value)
	}
	put("core.recovery_us_per_violation", "us", perVio)
	put("sweep.hash_us", "us", usPerCall(get(spanHash)))
	put("sweep.store_get_us", "us", usPerCall(getWarm))
	put("sweep.store_put_us", "us", usPerCall(get(spanPut)))
	put("sweep.record_bytes", "B", median(recordBytes))
	put("sweep.engine_self_ms", "ms", msPerRound(spanJob))
	put("sweep.dedup_hits", "count", float64(rounds[0].dedupHits))
	put("sweep.warm_hit_ratio", "ratio", ratio(float64(warmHits), float64(warmSpecs)))
	put("sweep.raw_cold_jobs_per_s", "1/s", t.cold.raw)
	put("sweep.norm_cold_jobs_per_s", "1/s", t.cold.norm)
	put("host.calib_ms", "ms", b.cal.median())
	put("host.calib_spread", "ratio", b.cal.spread())
	put("trace.overhead_pct", "%", 100*(ratio(median(tracedWall), median(plain))-1))

	path := filepath.Join(b.opts.outDir, fmt.Sprintf("trace-%s-seed%d.json", b.opts.workload, b.opts.seed))
	if err := writeChromeTrace(path, b.opts, tr.spans); err != nil {
		return err
	}

	fmt.Fprintf(b.log, "perfbench %s seed=%d traced: %d specs, %d rounds, calibration median %.3f ms (spread %.1f%%)\n",
		b.opts.workload, b.opts.seed, len(b.specs), len(rounds), b.cal.median(), 100*b.cal.spread())
	fmt.Fprintf(b.log, "  per-layer self time, per traced round (cold pass, then warm pass):\n")
	fmt.Fprintf(b.log, "  %-20s %8s %12s %12s %7s\n", "layer", "calls", "self ms", "us/call", "share")
	total := time.Duration(0)
	for _, s := range self {
		total += s
	}
	names := append(append([]string(nil), spanOrder...), spanJob+".warm")
	for _, name := range names {
		l := get(name)
		fmt.Fprintf(b.log, "  %-20s %8.0f %12.3f %12.2f %6.1f%%\n", name, float64(l.calls)/n,
			l.self.Seconds()*1e3/n, usPerCall(l), 100*ratio(l.self.Seconds(), total.Seconds()))
	}
	fmt.Fprintf(b.log, "  traced cold pass %.4f s vs untraced %.4f s: overhead %.2f%%\n",
		median(tracedWall), median(plain), m["trace.overhead_pct"].Value)
	for _, k := range perKernel {
		fmt.Fprintf(b.log, "  recovery cost %-40s %10.3f us/violation\n", k.name, k.usPerViolation)
	}
	fmt.Fprintf(b.log, "  Chrome trace: %s\n", path)
	printMetrics(b.log, m)
	return nil
}

// tracedRound runs one traced cold pass into a fresh store and one traced
// warm pass over it.  It returns the cold pass's wall time and the mean
// size of the records it wrote.
func (b *bench) tracedRound(tr *tracer, round int, cost *simCost) (time.Duration, float64, error) {
	dir, err := os.MkdirTemp(b.opts.outDir, "store-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := sweep.OpenStore(dir)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	b.tracedPass(tr, round, st, cost, false)
	wall := time.Since(start)
	bytes, err := meanFileSize(dir)
	if err != nil {
		return 0, 0, err
	}
	b.tracedPass(tr, round, st, cost, true)
	b.cal.point()
	return wall, bytes, nil
}

// tracedPass is one pass over the specs, in the engine's order of work for
// each: hash, deduplicate, store lookup, and on a miss the (memoized)
// workload build and golden run, the verified simulation and the store
// write.  A warm pass must find every spec in the store.
func (b *bench) tracedPass(tr *tracer, round int, st *sweep.DirStore, cost *simCost, warm bool) {
	preps := map[prepKey]*repro.Prepared{}
	first := map[string]int{}
	reps := make([]*telemetry.Report, len(b.specs))
	for i, spec := range b.specs {
		tr.jobs++
		job := tr.jobs
		root := tr.begin(round, job, 0, spanJob, warm)
		reps[i] = b.tracedJob(tr, round, job, root, i, spec, st, preps, first, reps, cost, warm)
		tr.end(root)
	}
	for i, rep := range reps {
		b.attempted++
		if rep != nil {
			b.compare(i, b.specs[i], rep)
		}
	}
}

// tracedJob makes the calls for one spec under its root span and returns
// its report, or nil after counting a failure.
func (b *bench) tracedJob(tr *tracer, round, job, root, i int, spec sweep.JobSpec, st *sweep.DirStore,
	preps map[prepKey]*repro.Prepared, first map[string]int, reps []*telemetry.Report, cost *simCost, warm bool) *telemetry.Report {
	call := func(name string, f func()) time.Duration {
		id := tr.begin(round, job, root, name, warm)
		f()
		tr.end(id)
		s := tr.spans[id-1]
		return s.end - s.start
	}
	fail := func(format string, args ...any) *telemetry.Report {
		b.fail("traced %s: "+format, append([]any{spec.Name()}, args...)...)
		return nil
	}

	var hash string
	var err error
	call(spanHash, func() { hash, err = spec.Hash() })
	if err != nil {
		return fail("%v", err)
	}
	if j, dup := first[hash]; dup {
		if reps[j] == nil {
			return fail("deduplicated onto a failed job")
		}
		return reps[j]
	}
	first[hash] = i

	var rec *sweep.Record
	call(spanGet, func() { rec, err = st.Get(hash) })
	switch {
	case err != nil:
		return fail("store get: %v", err)
	case rec != nil && !warm:
		return fail("fresh store already holds %s", hash)
	case rec != nil:
		return rec.Report
	case warm:
		return fail("warm pass missed the store")
	}

	k := keyOf(spec)
	p := preps[k]
	if p == nil {
		var w *workload.Workload
		call(spanBuild, func() {
			w, err = workload.Build(k.workload, workload.Params{Size: k.size, Unroll: k.unroll, Seed: k.seed})
		})
		if err != nil {
			return fail("build: %v", err)
		}
		var golden *emu.Result
		call(spanEmu, func() { golden, err = w.RunEmulator(emu.Options{CollectOracle: true, TraceBlocks: 1 << 30}) })
		if err != nil {
			return fail("golden run: %v", err)
		}
		cost.goldenInsts += golden.Insts
		p = &repro.Prepared{Workload: w, Golden: golden}
		preps[k] = p
	}

	var res *repro.Result
	var alloc0, gc0, alloc1, gc1 uint64
	ctx, cancel := context.WithTimeout(b.ctx, jobTimeout)
	wall := call(spanSim, func() {
		alloc0, gc0 = readMem()
		res, err = repro.RunPrepared(ctx, spec.Config(), p)
		alloc1, gc1 = readMem()
	})
	cancel()
	if err != nil {
		return fail("%v", err)
	}
	cost.runNS[i] += wall
	cost.allocBytes += alloc1 - alloc0
	cost.gcCycles += gc1 - gc0
	rep := res.Report()
	rep.StampWall(wall)

	canon, err := spec.Canonical()
	if err != nil {
		return fail("%v", err)
	}
	call(spanPut, func() { err = st.Put(&sweep.Record{Hash: hash, Spec: canon, Report: rep}) })
	if err != nil {
		return fail("store put: %v", err)
	}
	return rep
}

func meanFileSize(dir string) (float64, error) {
	var total int64
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		n++
		return nil
	})
	return ratio(float64(total), float64(n)), err
}

// writeChromeTrace writes the spans as catapult JSON: one thread lane per
// traced round, one complete event per span, in wall microseconds.
func writeChromeTrace(path string, o options, spans []span) error {
	tb := telemetry.NewTraceBuilder()
	tb.SetMeta("workload", o.workload)
	tb.SetMeta("seed", fmt.Sprint(o.seed))
	tb.Process(1, "perfbench "+o.workload)
	lanes := map[int]bool{}
	for _, s := range spans {
		if !lanes[s.round] {
			lanes[s.round] = true
			tb.Thread(1, s.round+1, fmt.Sprintf("traced round %d", s.round+1))
		}
		cat, _, _ := strings.Cut(s.name, ".")
		args := map[string]any{"job": s.job, "id": s.id, "parent": s.parent, "warm": s.warm}
		tb.Span(1, s.round+1, s.name, cat, s.start.Microseconds(), (s.end - s.start).Microseconds(), args)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// kernelCost is one point's recovery cost: how much longer its dsre run
// took than its oracle run, per violation dsre had to repair.
type kernelCost struct {
	name           string
	usPerViolation float64
}

// recoveryCost compares each point's dsre and oracle simulation times from
// the traced rounds.  The aggregate is the summed extra time over the summed
// violations, across every point where dsre saw any.
func (b *bench) recoveryCost(cost *simCost, rounds float64) (float64, []kernelCost) {
	type pair struct {
		name         string
		dsre, oracle int
	}
	pairs := map[string]*pair{}
	var order []string
	for i, s := range b.specs {
		scheme, point, ok := b.pointOf(i)
		if !ok || (scheme != "dsre" && scheme != "oracle") {
			continue
		}
		p := pairs[point]
		if p == nil {
			p = &pair{name: fmt.Sprintf("%s seed %d size %d", s.Workload, s.Seed, b.refRep[i].Size), dsre: -1, oracle: -1}
			pairs[point] = p
			order = append(order, point)
		}
		if scheme == "dsre" && p.dsre < 0 {
			p.dsre = i
		} else if scheme == "oracle" && p.oracle < 0 {
			p.oracle = i
		}
	}
	var extra time.Duration
	var vios int64
	var out []kernelCost
	for _, point := range order {
		p := pairs[point]
		if p.dsre < 0 || p.oracle < 0 {
			continue
		}
		v := b.refRep[p.dsre].Violations
		if v == 0 {
			continue
		}
		d := cost.runNS[p.dsre] - cost.runNS[p.oracle]
		extra += d
		vios += v
		out = append(out, kernelCost{p.name, d.Seconds() * 1e6 / rounds / float64(v)})
	}
	sort.SliceStable(out, func(a, c int) bool { return out[a].usPerViolation > out[c].usPerViolation })
	return ratio(extra.Seconds()*1e6/rounds, float64(vios)), out
}
