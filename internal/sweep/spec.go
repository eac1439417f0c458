// Package sweep turns the experiment grid into deterministic jobs and runs
// them on a bounded worker pool with content-addressed result caching.
//
// A JobSpec names one simulation point — workload, scheme, machine
// parameters, seed.  Its Hash is a SHA-256 over the canonical spec plus
// the simulator-version stamp (sim.Version), so a result cached on disk is
// replayed instantly on the next sweep and invalidated exactly when the
// modelled semantics change.  The Engine executes specs under per-job
// timeouts with panic isolation and bounded retry, memoizes workload
// builds so the schemes of one experiment share a single program and
// golden-model run, and streams progress plus a machine-readable
// sweep-manifest.json.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"repro"
	"repro/internal/sim"
)

// JobSpec is one deterministic simulation point.  Zero-valued fields mean
// "default" with exactly repro.Config's semantics; Canonical resolves the
// aliases that matter for hashing.
type JobSpec struct {
	Workload string `json:"workload"`
	Size     int    `json:"size,omitempty"`
	Unroll   int    `json:"unroll,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Scheme   string `json:"scheme,omitempty"`

	Frames        int `json:"frames,omitempty"`
	GridWidth     int `json:"grid_width,omitempty"`
	GridHeight    int `json:"grid_height,omitempty"`
	HopLatency    int `json:"hop_latency,omitempty"`
	LinkBandwidth int `json:"link_bandwidth,omitempty"`

	CommitTokensFree    bool   `json:"commit_tokens_free,omitempty"`
	NoSuppressIdentical bool   `json:"no_suppress_identical,omitempty"`
	BlockPredictor      string `json:"block_predictor,omitempty"`
	Placement           string `json:"placement,omitempty"`
	StoreSetSize        int    `json:"store_set_size,omitempty"`
	MemLatency          int    `json:"mem_latency,omitempty"`
	DTileBanks          int    `json:"dtile_banks,omitempty"`
	LSQCapacity         int    `json:"lsq_capacity,omitempty"`
	ValuePredict        bool   `json:"value_predict,omitempty"`

	// SampleEvery enables per-cycle telemetry sampling in the point's
	// report (see repro.Config.SampleEvery).
	SampleEvery int `json:"sample_every,omitempty"`
}

// Config converts the spec to the repro façade's run configuration.
func (s JobSpec) Config() repro.Config {
	return repro.Config{
		Workload:            s.Workload,
		Size:                s.Size,
		Unroll:              s.Unroll,
		Seed:                s.Seed,
		Scheme:              s.Scheme,
		Frames:              s.Frames,
		GridWidth:           s.GridWidth,
		GridHeight:          s.GridHeight,
		HopLatency:          s.HopLatency,
		LinkBandwidth:       s.LinkBandwidth,
		CommitTokensFree:    s.CommitTokensFree,
		NoSuppressIdentical: s.NoSuppressIdentical,
		BlockPredictor:      s.BlockPredictor,
		Placement:           s.Placement,
		StoreSetSize:        s.StoreSetSize,
		MemLatency:          s.MemLatency,
		DTileBanks:          s.DTileBanks,
		LSQCapacity:         s.LSQCapacity,
		ValuePredict:        s.ValuePredict,
		SampleEvery:         s.SampleEvery,
	}
}

// Canonical resolves scheme and seed aliases so that two specs selecting
// the same simulation canonicalise — and therefore hash — identically.
// Machine-parameter defaults are resolved separately by the hash through
// repro.Config.MachineConfig and sim.Config.Canonical.
func (s JobSpec) Canonical() (JobSpec, error) {
	scheme, err := repro.CanonicalScheme(s.Scheme)
	if err != nil {
		return JobSpec{}, err
	}
	s.Scheme = scheme
	if s.Seed == 0 {
		s.Seed = 1 // workload.Params treats zero as seed 1
	}
	return s, nil
}

// Validate rejects specs that cannot run: unknown workloads or schemes,
// negative scale parameters, and machine configurations the simulator
// itself rejects (sim.ConfigError).
func (s JobSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("sweep: spec has no workload (have %v)", repro.Workloads())
	}
	if !repro.KnownWorkload(s.Workload) {
		return fmt.Errorf("sweep: unknown workload %q (have %v)", s.Workload, repro.Workloads())
	}
	if s.Size < 0 || s.Unroll < 0 {
		return fmt.Errorf("sweep: %s: negative size %d / unroll %d", s.Workload, s.Size, s.Unroll)
	}
	if s.SampleEvery < 0 {
		return fmt.Errorf("sweep: %s: negative sample interval %d", s.Workload, s.SampleEvery)
	}
	if _, err := repro.CanonicalScheme(s.Scheme); err != nil {
		return err
	}
	mc, err := s.Config().MachineConfig()
	if err != nil {
		return err
	}
	return mc.Validate()
}

// hashPayload is the exact byte layout hashed into a job's cache key: the
// simulator-version stamp, the canonical workload point, and the fully
// canonical machine configuration (every default explicit).  Field order
// is fixed by this struct — changing it invalidates every cache, so don't.
// keyer writes json.Marshal of it field by field; TestHashEncodingMatchesJSON
// holds the two equal and TestHashGoldenKeys pins the resulting keys.
type hashPayload struct {
	SimVersion  string     `json:"sim_version"`
	Workload    string     `json:"workload"`
	Size        int        `json:"size"`
	Unroll      int        `json:"unroll"`
	Seed        uint64     `json:"seed"`
	Scheme      string     `json:"scheme"`
	Machine     sim.Config `json:"machine"`
	SampleEvery int        `json:"sample_every"`
}

// Hash returns the spec's content address: hex SHA-256 over the canonical
// spec and machine configuration plus the sim.Version stamp.  Specs that
// differ only in alias spelling or in explicitly-written default values
// hash identically; any bump of sim.Version changes every hash.
func (s JobSpec) Hash() (string, error) {
	var k keyer
	return k.hash(s)
}

// keyer computes cache keys.  The hashed bytes are exactly
// json.Marshal(hashPayload): the machine configuration is encoded with
// json.Marshal and the other fields are written around it.  A keyer made by
// newKeyer encodes each distinct canonical machine configuration once, so
// hashing a grid whose specs share a handful of machines costs one encoding
// per machine; the zero keyer encodes every time.  A keyer is not safe for
// concurrent use.
type keyer struct {
	machines map[sim.Config][]byte // nil: no memo
	buf      []byte
}

func newKeyer() *keyer { return &keyer{machines: make(map[sim.Config][]byte)} }

// hash returns s's content address (JobSpec.Hash).
func (k *keyer) hash(s JobSpec) (string, error) {
	b, err := k.encode(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// encode returns the bytes hash takes SHA-256 of: json.Marshal of s's
// hashPayload.  The slice is reused by the next call.
func (k *keyer) encode(s JobSpec) ([]byte, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	mc, err := c.Config().MachineConfig()
	if err != nil {
		return nil, err
	}
	p := hashPayload{
		SimVersion:  sim.Version,
		Workload:    c.Workload,
		Size:        c.Size,
		Unroll:      c.Unroll,
		Seed:        c.Seed,
		Scheme:      c.Scheme,
		Machine:     mc.Canonical(),
		SampleEvery: c.SampleEvery,
	}
	machine, ok := k.machines[p.Machine]
	if !ok {
		if machine, err = json.Marshal(p.Machine); err != nil {
			return nil, fmt.Errorf("sweep: hash %s/%s: %w", s.Workload, s.Scheme, err)
		}
		if k.machines != nil {
			k.machines[p.Machine] = machine
		}
	}
	b := k.buf[:0]
	if b == nil {
		b = make([]byte, 0, len(machine)+256) // room for the other fields
	}
	b = append(b, `{"sim_version":`...)
	b = appendJSONString(b, p.SimVersion)
	b = append(b, `,"workload":`...)
	b = appendJSONString(b, p.Workload)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(p.Size), 10)
	b = append(b, `,"unroll":`...)
	b = strconv.AppendInt(b, int64(p.Unroll), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, p.Seed, 10)
	b = append(b, `,"scheme":`...)
	b = appendJSONString(b, p.Scheme)
	b = append(b, `,"machine":`...)
	b = append(b, machine...)
	b = append(b, `,"sample_every":`...)
	b = strconv.AppendInt(b, int64(p.SampleEvery), 10)
	b = append(b, '}')
	k.buf = b
	return b, nil
}

// appendJSONString appends s as json.Marshal encodes it.  Printable ASCII
// other than the bytes json.Marshal escapes ('"', '\\', and '<', '>', '&'
// for HTML safety) is written as is; any other string is rare in a spec and
// goes through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Name renders the spec's human-readable identity for logs and manifests.
func (s JobSpec) Name() string {
	scheme := s.Scheme
	if scheme == "" {
		scheme = "dsre"
	}
	return s.Workload + "/" + scheme
}
