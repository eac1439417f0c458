package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

const (
	// jobTimeout fails a livelocked job instead of hanging the run.
	jobTimeout = 60 * time.Second
	// runBudget bounds the whole run; no round starts that would likely
	// end past it, and the engine abandons jobs still queued at it.
	runBudget = 150 * time.Second
	// minWindow is the shortest wall time one set-up or warm-pass figure
	// may rest on; shorter passes are repeated and their mean taken.
	minWindow = 250 * time.Millisecond
	// warmBlock is the shortest wall time one warm-pass sample rests on.
	warmBlock = 50 * time.Millisecond
	// pointsPerPass is how many calibration points a cold pass takes, at
	// fixed batch boundaries: the garbage collection each point starts with
	// then always falls at the same place, which keeps the peak resident
	// set from depending on timing.
	pointsPerPass = 24
	// minRounds and setupSamples are the fewest samples a median is
	// taken over.
	minRounds    = 3
	setupSamples = 5
)

// bench is one run's state: the workload's specs, the failures counted
// against the jobs attempted, and the reference report of every spec.
type bench struct {
	opts     options
	ctx      context.Context
	deadline time.Time
	specs    []sweep.JobSpec
	cal      calibrator
	log      io.Writer

	// batches groups the specs by hash in order of first appearance: each
	// batch is one distinct simulation plus the alias spellings the engine
	// collapses onto it.  insts is each batch's golden instruction count.
	batches [][]int
	insts   []int64

	attempted, failed int

	// tr holds the traced run's spans.
	tr *tracer

	// ref holds each spec's report from the first cold pass, encoded
	// without its wall-clock fields; every later pass must reproduce it.
	ref    []string
	refRep []*telemetry.Report
}

// prepKey is one workload build: what repro.Prepare takes.
type prepKey struct {
	workload     string
	size, unroll int
	seed         uint64
}

func keyOf(s sweep.JobSpec) prepKey { return prepKey{s.Workload, s.Size, s.Unroll, s.Seed} }

func run(o options, log io.Writer) (*result, error) {
	b, cancel, err := newBench(o, log)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return b.measure()
}

// newBench prepares a run of o; cancel releases its budget's timer.
func newBench(o options, log io.Writer) (b *bench, cancel context.CancelFunc, err error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	deadline := time.Now().Add(runBudget)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	b = &bench{opts: o, ctx: ctx, deadline: deadline, specs: w.specs(o.seed, o.tiny), log: log}
	b.group()
	return b, cancel, nil
}

// measure runs the end-to-end or the traced measurement.
func (b *bench) measure() (*result, error) {
	b.cal.point() // the first point also warms the probe's table into cache
	metrics := map[string]metric{}
	var err error
	if b.opts.trace {
		err = b.traced(metrics)
	} else {
		err = b.endToEnd(metrics)
	}
	if err != nil {
		return nil, err
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// group fills b.batches.  A spec that cannot be hashed gets a batch of its
// own, where the engine fails it.
func (b *bench) group() {
	at := map[string]int{}
	for i, s := range b.specs {
		h, err := s.Hash()
		if k, ok := at[h]; ok && err == nil {
			b.batches[k] = append(b.batches[k], i)
			continue
		}
		if err == nil {
			at[h] = len(b.batches)
		}
		b.batches = append(b.batches, []int{i})
	}
	b.insts = make([]int64, len(b.batches))
}

// fail counts one failed operation and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

// measured is one rate, as timed and scaled to the nominal host.
type measured struct{ raw, norm float64 }

// endToEnd measures set-up, then repeats cold+warm rounds for the run's
// seconds, and reports every end-to-end metric.
func (b *bench) endToEnd(m map[string]metric) error {
	setup, err := b.setup()
	if err != nil {
		return err
	}
	rounds, err := b.rounds(minRounds, nil)
	if err != nil {
		return err
	}
	// The lowest round peak: the rounds' peaks sit on a sharp floor set by
	// the live data, plus up to an eighth more wherever a GC cycle happens
	// to fall late.
	rss := rounds[0].peakRSS
	for _, rs := range rounds {
		rss = min(rss, rs.peakRSS)
	}
	ipc, speedup, fraction := b.headline()
	t := b.throughput(rounds)

	m["setup_s"] = metric{b.cal.time(setup), "s"}
	m["sim_minsts_per_s"] = metric{t.sim.norm, "Minst/s"}
	m["cold_jobs_per_s"] = metric{t.cold.norm, "1/s"}
	m["warm_jobs_per_s"] = metric{t.warm.norm, "1/s"}
	m["peak_rss_mb"] = metric{rss, "MiB"}
	m["ipc_geomean"] = metric{ipc, "inst/cycle"}
	m["dsre_speedup_over_storeset"] = metric{speedup, "x"}
	m["dsre_fraction_of_oracle"] = metric{fraction, "x"}

	fmt.Fprintf(b.log, "perfbench %s seed=%d: %d specs, %d rounds, calibration median %.3f ms (spread %.1f%%)\n",
		b.opts.workload, b.opts.seed, len(b.specs), len(rounds), b.cal.median(), 100*b.cal.spread())
	fmt.Fprintf(b.log, "  raw: sim %.4f Minst/s, cold %.3f jobs/s, warm %.1f jobs/s, setup %.4f s\n",
		t.sim.raw, t.cold.raw, t.warm.raw, setup)
	printMetrics(b.log, m)
	return nil
}

// rounds repeats cold+warm rounds until the run's seconds have passed and
// at least the given number of rounds ran, or until another round would
// overrun the run budget.  each, when set, runs after every round.
func (b *bench) rounds(least int, each func(r int) error) ([]roundStats, error) {
	var out []roundStats
	began := time.Now()
	for r := 0; ; r++ {
		rs, err := b.round()
		if err != nil {
			return nil, err
		}
		out = append(out, rs)
		if each != nil {
			if err := each(r); err != nil {
				return nil, err
			}
		}
		took := time.Since(began) / time.Duration(r+1)
		if b.opts.tiny || (r+1 >= least && time.Since(began).Seconds() >= b.opts.seconds) ||
			time.Now().Add(took).After(b.deadline) {
			return out, nil
		}
	}
}

// rates are a set of rounds folded into the end-to-end rates, raw and
// normalised.
type rates struct{ sim, cold, warm measured }

// throughput folds rounds into rates.  Each batch's cold time and
// simulation time is the median over rounds and the pass is their sum, so a
// burst of host noise in one round moves only the batches it hit; the warm
// rate is from the median warm block over all rounds.
func (b *bench) throughput(rounds []roundStats) (r rates) {
	var insts int64
	for _, n := range b.insts {
		insts += n
	}
	var cold, sim float64
	for k := range b.batches {
		var c, s []float64
		for _, rs := range rounds {
			c, s = append(c, rs.batch[k]), append(s, rs.sim[k])
		}
		cold += median(c)
		sim += median(s)
	}
	n := float64(len(b.specs))
	r.cold = b.scale(ratio(n, cold))
	r.sim = b.scale(ratio(float64(insts)/1e6, sim))
	var warm []float64
	for _, rs := range rounds {
		warm = append(warm, rs.warm...)
	}
	r.warm = b.scale(ratio(n, median(warm)))
	return r
}

func (b *bench) scale(raw float64) measured { return measured{raw, b.cal.rate(raw)} }

// setup times repro.Prepare for every distinct workload point plus opening
// a fresh store: the work a sweep does before its first simulation.  It
// returns the median of setupSamples samples, each the mean over enough
// repetitions to fill minWindow, in raw seconds.
func (b *bench) setup() (float64, error) {
	var points []prepKey
	seen := map[prepKey]bool{}
	for _, s := range b.specs {
		if k := keyOf(s); !seen[k] {
			seen[k] = true
			points = append(points, k)
		}
	}
	samples := setupSamples
	if b.opts.tiny {
		samples = 1
	}
	// An untimed pass first: the process's heap grows to its working size
	// here, and page faults on fresh memory cost whatever the host's memory
	// pressure makes them cost.
	if _, err := b.setupOnce(points); err != nil {
		return 0, err
	}
	var raw []float64
	for i := 0; i < samples; i++ {
		var total time.Duration
		n := 0
		for n == 0 || (total < minWindow && !b.opts.tiny) {
			d, err := b.setupOnce(points)
			if err != nil {
				return 0, err
			}
			total += d
			n++
		}
		raw = append(raw, total.Seconds()/float64(n))
		b.cal.point()
	}
	return median(raw), nil
}

func (b *bench) setupOnce(points []prepKey) (time.Duration, error) {
	dir, err := os.MkdirTemp(b.opts.outDir, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	for _, k := range points {
		b.attempted++
		if _, err := repro.Prepare(k.workload, k.size, k.unroll, k.seed); err != nil {
			b.fail("prepare %v: %v", k, err)
		}
	}
	if _, err := sweep.OpenStore(dir); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// roundStats is one cold pass into a fresh store plus the warm passes that
// re-read it, in seconds.
type roundStats struct {
	batch   []float64 // cold pass, per batch
	sim     []float64 // time inside the simulator, per batch
	warm    []float64 // the mean warm pass of each block
	peakRSS float64   // MiB, over the round

	dedupHits int // specs the cold pass collapsed onto another
	warmHits  int // cache hits over all warm passes
	warmSpecs int // specs over all warm passes
}

// round runs one cold pass, one Engine.Run per batch on one engine, then
// whole-list warm passes against the filled store.
func (b *bench) round() (roundStats, error) {
	rs := roundStats{batch: make([]float64, len(b.batches)), sim: make([]float64, len(b.batches))}
	dir, err := os.MkdirTemp(b.opts.outDir, "store-")
	if err != nil {
		return rs, err
	}
	defer os.RemoveAll(dir)
	st, err := sweep.OpenStore(dir)
	if err != nil {
		return rs, err
	}
	opts := sweep.Options{Workers: 1, Timeout: jobTimeout, Store: st}

	// The round's peak resident set starts from the live heap alone.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return rs, err
	}
	b.cold(opts, &rs)
	b.warm(opts, &rs)
	if rs.peakRSS, err = peakRSSMiB(); err != nil {
		return rs, err
	}
	b.cal.point()
	return rs, nil
}

// cold runs the cold pass.  The engine, and with it its memo of prepared
// workloads, is garbage once cold returns.
func (b *bench) cold(opts sweep.Options, rs *roundStats) {
	eng := sweep.New(opts)
	stride := (len(b.batches) + pointsPerPass - 1) / pointsPerPass
	for k, idx := range b.batches {
		specs := make([]sweep.JobSpec, len(idx))
		for i, j := range idx {
			specs[i] = b.specs[j]
		}
		start := time.Now()
		// A Run error is the run budget running out; the jobs it left
		// unrun come back failed and are counted by check.
		sum, _ := eng.Run(b.ctx, specs)
		rs.batch[k] = time.Since(start).Seconds()
		b.check(sum, idx, false)
		for _, j := range sum.Jobs {
			if j.Status == sweep.StatusOK && !j.CacheHit {
				rs.sim[k] += j.Report.SimWallMS / 1e3
				b.insts[k] = j.Report.Insts
			}
		}
		rs.dedupHits += sum.CacheHits
		if (k+1)%stride == 0 && k < len(b.batches)-1 {
			b.cal.point()
		}
	}
}

// warm times whole-list passes against the store the cold pass filled,
// after one untimed pass, until they fill minWindow.  The passes are timed
// in blocks of at least warmBlock, each block one sample: a pass alone can
// be a few milliseconds, and one sample per round leaves the median at the
// mercy of a single burst of host noise.
func (b *bench) warm(opts sweep.Options, rs *roundStats) {
	all := make([]int, len(b.specs))
	for i := range all {
		all[i] = i
	}
	pass := func() time.Duration {
		start := time.Now()
		sum, _ := sweep.New(opts).Run(b.ctx, b.specs)
		took := time.Since(start)
		b.check(sum, all, true)
		rs.warmHits += sum.CacheHits
		rs.warmSpecs += len(sum.Jobs)
		return took
	}
	b.cal.point() // also collects the cold pass's memo
	pass()
	var total time.Duration
	for len(rs.warm) == 0 || (total < minWindow && !b.opts.tiny && b.ctx.Err() == nil) {
		var block time.Duration
		n := 0
		for n == 0 || (block < warmBlock && !b.opts.tiny) {
			block += pass()
			n++
		}
		total += block
		rs.warm = append(rs.warm, block.Seconds()/float64(n))
	}
}

// check counts a pass's jobs as attempted and fails every job that did not
// succeed, that a warm pass had to recompute, or whose report differs from
// the reference (wall-clock fields aside).  idx maps the summary's jobs to
// spec indices.
func (b *bench) check(sum *sweep.Summary, idx []int, warm bool) {
	for k, j := range sum.Jobs {
		b.attempted++
		if j.Status != sweep.StatusOK {
			b.fail("%s: %s", j.Spec.Name(), j.Error)
			continue
		}
		if warm && !j.CacheHit {
			b.fail("%s: warm pass missed the store", j.Spec.Name())
			continue
		}
		b.compare(idx[k], j.Spec, j.Report)
	}
}

// compare fails a report that differs from spec i's reference; the first
// report seen for a spec becomes its reference.
func (b *bench) compare(i int, spec sweep.JobSpec, rep *telemetry.Report) {
	if b.ref == nil {
		b.ref = make([]string, len(b.specs))
		b.refRep = make([]*telemetry.Report, len(b.specs))
	}
	enc, err := encodeSimulated(rep)
	if err != nil {
		b.fail("%s: encode report: %v", spec.Name(), err)
		return
	}
	switch {
	case b.ref[i] == "":
		b.ref[i], b.refRep[i] = enc, rep
	case b.ref[i] != enc:
		b.fail("%s: report differs from the first pass", spec.Name())
	}
}

// encodeSimulated encodes a report without the host wall-clock fields, so
// two runs of one point compare equal exactly when their simulated results
// do.
func encodeSimulated(rep *telemetry.Report) (string, error) {
	c := *rep
	c.SimWallMS, c.McyclesPerSec = 0, 0
	data, err := json.Marshal(&c)
	return string(data), err
}

// resetPeakRSS restarts the kernel's peak-resident-set tracking (VmHWM) at
// the current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
