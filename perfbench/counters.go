package main

import "repro/internal/telemetry"

// pointOf names spec i's simulation point apart from its scheme: the hash
// of the spec under a fixed scheme, which resolves every alias and default
// the engine would.  ok is false for a spec without a reference report.
func (b *bench) pointOf(i int) (scheme, point string, ok bool) {
	if b.refRep == nil || b.refRep[i] == nil {
		return "", "", false
	}
	c, err := b.specs[i].Canonical()
	if err != nil {
		return "", "", false
	}
	scheme = c.Scheme
	c.Scheme = "dsre"
	point, err = c.Hash()
	return scheme, point, err == nil
}

// distinct returns the reference reports of the distinct simulation points,
// in spec order: alias spellings the engine collapses count once.
func (b *bench) distinct() []*telemetry.Report {
	var reps []*telemetry.Report
	seen := map[string]bool{}
	for i := range b.specs {
		scheme, point, ok := b.pointOf(i)
		if ok && !seen[point+" "+scheme] {
			seen[point+" "+scheme] = true
			reps = append(reps, b.refRep[i])
		}
	}
	return reps
}

// headline folds the reference reports into the simulated end-to-end
// figures: the geomean IPC over distinct points, and the geomeans of
// dsre's IPC over storeset+flush's and over the oracle's at each point.
func (b *bench) headline() (ipc, speedup, fraction float64) {
	byPoint := map[string]map[string]float64{}
	var order []string
	var ipcs []float64
	seen := map[string]bool{}
	for i := range b.specs {
		scheme, point, ok := b.pointOf(i)
		if !ok || seen[point+" "+scheme] {
			continue
		}
		seen[point+" "+scheme] = true
		ipcs = append(ipcs, b.refRep[i].IPC)
		if byPoint[point] == nil {
			byPoint[point] = map[string]float64{}
			order = append(order, point)
		}
		byPoint[point][scheme] = b.refRep[i].IPC
	}
	var sp, fr []float64
	for _, point := range order {
		p := byPoint[point]
		if d, ok := p["dsre"]; ok {
			if s, ok := p["storeset+flush"]; ok {
				sp = append(sp, d/s)
			}
			if o, ok := p["oracle"]; ok {
				fr = append(fr, d/o)
			}
		}
	}
	return geomean(ipcs), geomean(sp), geomean(fr)
}

type named struct {
	name, unit string
	value      float64
}

// simCounters are the simulated work counts of one pass over the distinct
// points: deterministic, so identical on every run of one commit.
type simCounters struct {
	cycles, insts int64
	named         []named
}

func (b *bench) counters() simCounters {
	var c simCounters
	var loads, stores, forwards, vio, deferred, peak int64
	var waves, waveRe, corr, flushes, msgs, hops, qwait int64
	var committed, executed, reexecs, sqExecs, sqBlocks, ssWaits int64
	var l1, l2 float64
	var cpi [8]int64
	var cpiTotal int64
	reps := b.distinct()
	for _, r := range reps {
		s := &r.Stats
		c.cycles += r.Cycles
		c.insts += r.Insts
		loads += s.LSQ.Loads
		stores += s.LSQ.Stores
		forwards += s.LSQ.Forwards
		vio += s.LSQ.Violations
		deferred += s.LSQ.DeferredPolicy
		peak = max(peak, int64(s.LSQ.PeakOccupancy))
		waves += s.WaveCount
		waveRe += s.WaveReexecs
		corr += s.DSRECorrections
		flushes += s.Flushes
		msgs += s.Net.Messages
		hops += s.Net.Hops
		qwait += s.Net.QueueWait
		committed += s.CommittedExecs
		executed += s.Executed
		reexecs += s.Reexecs
		sqExecs += s.SquashedExecs
		sqBlocks += s.SquashedBlocks
		ssWaits += s.StoreSet.LoadWaits
		l1 += s.L1DMissRate
		l2 += s.L2MissRate
		a := s.Acct
		for k, v := range []int64{a.Commit, a.Wave, a.BPred, a.Fetch, a.Drain, a.CacheMiss, a.Issue, a.NoC} {
			cpi[k] += v
		}
		cpiTotal += a.Total()
	}
	count := func(name string, v int64) named { return named{name, "count", float64(v)} }
	share := func(name string, k int) named { return named{name, "share", ratio(float64(cpi[k]), float64(cpiTotal))} }
	n := float64(len(reps))
	c.named = []named{
		count("lsq.violations", vio),
		count("lsq.loads", loads),
		count("lsq.stores", stores),
		count("lsq.forwards", forwards),
		count("lsq.deferred_policy", deferred),
		count("lsq.peak_occupancy", peak),
		count("core.waves", waves),
		count("core.wave_reexecs", waveRe),
		count("core.corrections", corr),
		count("core.flushes", flushes),
		count("noc.messages", msgs),
		count("noc.hops", hops),
		{"noc.queue_wait", "cycles", float64(qwait)},
		{"noc.hops_per_msg", "hops", ratio(float64(hops), float64(msgs))},
		{"sim.useful_exec_ratio", "ratio", ratio(float64(committed), float64(executed))},
		count("sim.reexecs", reexecs),
		count("sim.squashed_execs", sqExecs),
		count("sim.squashed_blocks", sqBlocks),
		count("predictor.storeset_load_waits", ssWaits),
		{"cache.l1d_miss_rate", "ratio", ratio(l1, n)},
		{"cache.l2_miss_rate", "ratio", ratio(l2, n)},
		share("cpi.commit", 0),
		share("cpi.wave", 1),
		share("cpi.bpred", 2),
		share("cpi.fetch", 3),
		share("cpi.drain", 4),
		share("cpi.cachemiss", 5),
		share("cpi.issue", 6),
		share("cpi.noc", 7),
	}
	return c
}
