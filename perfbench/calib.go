package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// Host calibration.  On a shared virtual machine the same binary runs up to
// ±20% faster or slower from one process to the next, and within a process
// over seconds, because the host core it lands on and its neighbours'
// memory traffic do.  Every host-time figure is therefore scaled by a fixed
// probe of the host's speed, taken between the measured passes: decoding a
// fixed JSON document into generic maps.  That is allocation, pointer
// chasing, data-dependent branches and garbage collection, the mix the
// simulator, the store and the workload builds all spend their time on.
// An L1-resident dependent-load loop was the first probe; taken side by
// side over the same runs it tracked the simulation figures about as well
// and the set-up figures worse (18.9% spread against 11.4% on wide-window,
// 8.7% against 4.9% on streaming); README.md has the full comparison.  The
// probe's code is part of the benchmark and uses only the standard library,
// so it is identical on every commit the benchmark compares and a real gain
// or loss passes through the scaling unchanged.

const (
	// probeDecodes is how many times one probe decodes the document,
	// about 4–5 ms of work.
	probeDecodes = 10

	// nominalCalibMS is the probe's median time on the nominal host.  A
	// normalised figure reads as that figure on a host whose probe takes
	// exactly this long.
	nominalCalibMS = 4.5
)

// probeDoc is the probe's input: 40 records of a name, a 64-digit hex hash
// and a dozen integers and floats each, about 20 KB.
var probeDoc = func() []byte {
	type record struct {
		Name  string    `json:"name"`
		Hash  string    `json:"hash"`
		Vals  []int64   `json:"vals"`
		Rates []float64 `json:"rates"`
	}
	var recs []record
	for i := 0; i < 40; i++ {
		r := record{Name: fmt.Sprintf("point-%d", i), Hash: fmt.Sprintf("%064x", i*7919)}
		for j := 0; j < 12; j++ {
			r.Vals = append(r.Vals, int64(i*j*104729))
			r.Rates = append(r.Rates, float64(i*j)/7)
		}
		recs = append(recs, r)
	}
	data, err := json.Marshal(recs)
	if err != nil {
		panic(err) // a fixed, always-encodable value
	}
	return data
}()

// probeSink keeps the probe's result live so the work is not optimised away.
var probeSink int

// probe decodes the document probeDecodes times and returns the wall time
// in ms.
func probe() float64 {
	start := time.Now()
	for i := 0; i < probeDecodes; i++ {
		var v []map[string]any
		if err := json.Unmarshal(probeDoc, &v); err != nil {
			panic(err) // probeDoc is produced by json.Marshal above
		}
		probeSink += len(v)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// calibrator takes calibration points over a run, between the measured
// passes.  Every host-time figure of the run is scaled by the median of all
// its probes.  Scaling each pass by only the probes next to it was tried and
// spread more across runs: a handful of probes is noisier than the passes.
type calibrator struct {
	probes []float64 // every probe's time in ms
}

// point collects garbage first, so that no background GC work shares the
// host with the probes, then takes three probes.
func (c *calibrator) point() {
	runtime.GC()
	for i := 0; i < 3; i++ {
		c.probes = append(c.probes, probe())
	}
}

// median is the run's median probe time in ms.
func (c *calibrator) median() float64 { return median(c.probes) }

// spread is the probes' interquartile range as a share of their median.
func (c *calibrator) spread() float64 { return iqrShare(c.probes) }

// rate scales a raw per-second figure to the nominal host.
func (c *calibrator) rate(raw float64) float64 { return raw * c.median() / nominalCalibMS }

// time scales a raw duration to the nominal host.
func (c *calibrator) time(raw float64) float64 { return raw * nominalCalibMS / c.median() }
