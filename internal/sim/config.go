// Package sim is the cycle-level simulator of a TRIPS-like EDGE processor,
// tying the substrates together: block fetch and next-block prediction,
// frame allocation onto the execution-tile grid, dataflow issue over the
// operand mesh, the load/store queue, and block-atomic commit — with the
// DSRE protocol (internal/core) handling mis-speculation recovery.
package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/predictor"
)

// Config holds every machine parameter.  The zero value is not runnable;
// start from DefaultConfig.
type Config struct {
	// Grid dimensions in execution tiles.
	GridWidth  int
	GridHeight int
	// Frames is the number of blocks that can be in flight (window size =
	// Frames × 128 instruction slots).
	Frames int

	// Recovery selects flush vs DSRE mis-speculation recovery.
	Recovery core.RecoveryScheme
	// Policy selects the load-issue dependence policy.
	Policy core.IssuePolicy

	// SuppressIdenticalValues stops re-execution waves whose recomputed
	// value is unchanged (ablation E7).
	SuppressIdenticalValues bool
	// CommitTokensFree delivers commit-wave tokens without consuming
	// operand-network bandwidth (ablation E6).
	CommitTokensFree bool

	// HopLatency and LinkBandwidth parameterise the operand mesh.
	HopLatency    int
	LinkBandwidth int

	// Hier is the cache hierarchy configuration.
	Hier cache.HierConfig
	// StoreSet sizes the store-set predictor (Policy == IssueStoreSet).
	StoreSet predictor.Config

	// ForwardLatency and ViolationLatency parameterise the LSQ.
	ForwardLatency   int
	ViolationLatency int

	// FetchCycles is the fixed block fetch/map pipeline depth added to the
	// I-cache access latency.
	FetchCycles int
	// RegReadLatency is the register-file read latency charged to
	// architecturally-bound register reads at map time.
	RegReadLatency int

	// ALULatency, MulLatency and DivLatency give execution latencies;
	// loads/stores use ALULatency for address generation.
	ALULatency int
	MulLatency int
	DivLatency int

	// ValuePredict enables stride load-value prediction: confident loads
	// deliver a predicted value in one cycle, and mis-predictions are
	// repaired by DSRE waves — the protocol's second application.
	ValuePredict bool
	// LSQCapacity bounds resident LSQ entries; block mapping stalls when
	// the block's memory operations would not fit (zero = unbounded).
	// TRIPS sized its LSQ at one entry per block LSID slot; undersizing it
	// throttles the window for memory-heavy code.
	LSQCapacity int
	// DTileBanks is the number of data-tile ports on the left mesh column
	// that memory traffic is interleaved across by cache-line address
	// (clamped to GridHeight).  One bank is a single hot LSQ port; the
	// TRIPS-like default uses one bank per row.
	DTileBanks int
	// Placement selects how block instructions map onto tiles.
	Placement PlacementKind
	// BlockPred selects the next-block predictor.
	BlockPred BlockPredKind
	// BlockPredBits sizes the two-level predictor table (2^bits entries).
	BlockPredBits int

	// MaxCycles aborts runs that stop making progress; zero means 1<<62.
	MaxCycles int64
	// DeadlockCycles aborts when no block commits for this many cycles
	// (a protocol bug, not a modelling condition).  Zero means 200000.
	DeadlockCycles int64
}

// DefaultConfig is the TRIPS-like baseline machine of the paper's
// configuration table (experiment E1): a 4×4 grid of execution tiles, 8
// 128-instruction blocks in flight (1024-instruction window), 1-cycle mesh
// hops, 32KB L1s, 1MB L2.
func DefaultConfig() Config {
	return Config{
		GridWidth:               4,
		GridHeight:              4,
		Frames:                  8,
		Recovery:                core.RecoverDSRE,
		Policy:                  core.IssueStoreSet,
		SuppressIdenticalValues: true,
		CommitTokensFree:        false,
		HopLatency:              1,
		LinkBandwidth:           4,
		Hier:                    cache.DefaultHierConfig(),
		StoreSet:                predictor.DefaultConfig(),
		ForwardLatency:          2,
		ViolationLatency:        2,
		FetchCycles:             8,
		RegReadLatency:          2,
		DTileBanks:              4,
		Placement:               PlaceRoundRobin,
		BlockPred:               PredTwoLevel,
		BlockPredBits:           12,
		ALULatency:              1,
		MulLatency:              3,
		DivLatency:              12,
		MaxCycles:               0,
		DeadlockCycles:          0,
	}
}

// ConfigError reports a configuration field that would deadlock or crash
// the machine, caught before construction instead of deep inside a run.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid config: %s: %s", e.Field, e.Reason)
}

// Validate sanity-checks the configuration.  Nonsensical machines (zero
// tiles, a window smaller than one block, dead network links) are rejected
// with a *ConfigError naming the field, so callers building configurations
// programmatically — the sweep engine in particular — fail fast instead of
// deadlocking mid-simulation.
func (c *Config) Validate() error {
	if c.GridWidth < 1 || c.GridHeight < 1 {
		return &ConfigError{"GridWidth/GridHeight", fmt.Sprintf("grid %dx%d needs at least one execution tile", c.GridWidth, c.GridHeight)}
	}
	if c.WindowInsts() < isa.MaxInsts {
		return &ConfigError{"Frames", fmt.Sprintf("window of %d instructions cannot hold one %d-instruction block", c.WindowInsts(), isa.MaxInsts)}
	}
	if c.Frames < 2 {
		return &ConfigError{"Frames", fmt.Sprintf("%d frames (need >= 2 for any speculation)", c.Frames)}
	}
	if c.HopLatency < 1 {
		return &ConfigError{"HopLatency", fmt.Sprintf("%d-cycle hops (need >= 1)", c.HopLatency)}
	}
	if c.LinkBandwidth < 1 {
		return &ConfigError{"LinkBandwidth", fmt.Sprintf("%d msgs/link/cycle (need >= 1)", c.LinkBandwidth)}
	}
	if c.ALULatency < 1 || c.MulLatency < 1 || c.DivLatency < 1 {
		return &ConfigError{"ALULatency/MulLatency/DivLatency", "zero execution latency"}
	}
	if c.FetchCycles < 1 {
		return &ConfigError{"FetchCycles", fmt.Sprintf("%d fetch cycles (need >= 1)", c.FetchCycles)}
	}
	if c.LSQCapacity < 0 {
		return &ConfigError{"LSQCapacity", fmt.Sprintf("%d entries (zero means unbounded; negative is meaningless)", c.LSQCapacity)}
	}
	if c.LSQCapacity > 0 && c.LSQCapacity < isa.MaxMemOps {
		return &ConfigError{"LSQCapacity", fmt.Sprintf("%d entries cannot hold one block's %d memory ops — mapping would deadlock", c.LSQCapacity, isa.MaxMemOps)}
	}
	if c.DTileBanks < 0 {
		return &ConfigError{"DTileBanks", fmt.Sprintf("%d banks (zero means default; negative is meaningless)", c.DTileBanks)}
	}
	if c.MaxCycles < 0 || c.DeadlockCycles < 0 {
		return &ConfigError{"MaxCycles/DeadlockCycles", "negative cycle budget"}
	}
	return nil
}

// Canonical returns the configuration with every zero-means-default field
// resolved to its effective value: MaxCycles/DeadlockCycles become their
// working budgets and DTileBanks is clamped exactly as the machine clamps
// it.  Two configurations that build identical machines have identical
// canonical forms, which is what makes a content hash over the canonical
// form a safe cache key (see internal/sweep).
func (c Config) Canonical() Config {
	c.MaxCycles = c.maxCycles()
	c.DeadlockCycles = c.deadlockCycles()
	if c.DTileBanks < 1 {
		c.DTileBanks = 1
	}
	if c.DTileBanks > c.GridHeight {
		c.DTileBanks = c.GridHeight
	}
	return c
}

func (c *Config) maxCycles() int64 {
	if c.MaxCycles > 0 {
		return c.MaxCycles
	}
	return 1 << 62
}

func (c *Config) deadlockCycles() int64 {
	if c.DeadlockCycles > 0 {
		return c.DeadlockCycles
	}
	return 200000
}

// opLatency returns the execution latency of an opcode.
func (c *Config) opLatency(op isa.Opcode) int {
	switch op {
	case isa.OpMul:
		return c.MulLatency
	case isa.OpDiv, isa.OpRem:
		return c.DivLatency
	default:
		return c.ALULatency
	}
}

// netConfig derives the mesh configuration: the execution grid plus one
// column of D/G tiles on the left (x=0) and one row of register tiles on
// top (y=0).
func (c *Config) netConfig() noc.Config {
	return noc.Config{
		Width:         c.GridWidth + 1,
		Height:        c.GridHeight + 1,
		HopLatency:    c.HopLatency,
		LinkBandwidth: c.LinkBandwidth,
		LocalLatency:  1,
	}
}

// WindowInsts returns the instruction-window capacity (frames × block size).
func (c *Config) WindowInsts() int { return c.Frames * 128 }
