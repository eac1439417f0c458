// Package lint is a zero-dependency static-analysis suite for this
// repository, built directly on go/parser and go/types (no golang.org/x/
// tools, so it runs offline).  It enforces the invariants the reproduction
// rests on:
//
//   - determinism: simulator packages must be pure functions of
//     sim.Config + seed — no wall-clock reads, no unseeded math/rand, no
//     goroutines, no order-dependent iteration over maps;
//   - confighash: every sim.Config knob must reach the sweep engine's
//     content-addressed cache key, so a new field can never poison cached
//     results;
//   - statscoverage: every sim.Stats counter must survive into the
//     dsre-report/v1 run report, so measurements can't silently drop;
//   - exhaustive: switches over the protocol's enum sets (message kinds,
//     opcodes, recovery schemes, ...) must cover every declared constant
//     or carry an explicit default.
//
// The suite is exercised by cmd/dsre-lint and pinned by golden tests; a
// self-audit test keeps the shipped tree lint-clean.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
)

// Diag is one diagnostic, positioned relative to the module root.
type Diag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Config anchors the analyzers to the types they audit.  Packages are named
// by module-relative path so the same configuration applies to the real
// tree and to the miniature fixture modules under testdata/.
type Config struct {
	// DeterminismPkgs lists the module-relative packages whose non-test
	// files must be deterministic (the simulator and its substrates).
	DeterminismPkgs []string

	// SimPkg.ConfigType is the machine configuration struct; its
	// CanonicalMethod must normalise it for hashing.
	SimPkg          string
	ConfigType      string
	CanonicalMethod string

	// SweepPkg.HashPayloadType is the struct hashed into the result-cache
	// key; it must carry the full machine configuration.  Every exported
	// field of SpecType must be folded into the hash via SpecFoldMethods.
	SweepPkg        string
	HashPayloadType string
	SpecType        string
	SpecFoldMethods []string

	// SimPkg.StatsType must be fully JSON-visible and must appear as a
	// field of TelemetryPkg.ReportType.
	StatsType    string
	TelemetryPkg string
	ReportType   string

	// EnumTypes lists "relpkg.TypeName" enum sets whose switches must be
	// exhaustive (or carry an explicit default).
	EnumTypes []string

	// LockPkgs lists the concurrent packages audited by lockcheck
	// (guarded-field discipline, lock copies, lock-order cycles).
	LockPkgs []string

	// CtxPkgs lists the packages whose blocking for-loops must observe
	// cancellation (ctxcheck), so a drain can never hang.
	CtxPkgs []string

	// SchemaDir is the module-relative directory holding the wire-schema
	// goldens that schemadrift checks (and -write-schemas regenerates).
	SchemaDir string
}

// DefaultConfig anchors the analyzers to this repository's layout.
func DefaultConfig() Config {
	return Config{
		DeterminismPkgs: []string{
			"internal/sim", "internal/core", "internal/lsq", "internal/noc",
			"internal/mem", "internal/predictor", "internal/cache", "internal/emu",
			"internal/account", "internal/sched", "internal/bitset",
			// The observability core must stay deterministic-when-off: it
			// takes every timestamp from its caller and never spawns
			// goroutines (the HTTP server lives in internal/obs/status,
			// outside this set precisely because servers need both).
			"internal/obs",
		},
		SimPkg:          "internal/sim",
		ConfigType:      "Config",
		CanonicalMethod: "Canonical",
		SweepPkg:        "internal/sweep",
		HashPayloadType: "hashPayload",
		SpecType:        "JobSpec",
		SpecFoldMethods: []string{"Config", "Hash", "Canonical"},
		StatsType:       "Stats",
		TelemetryPkg:    "internal/telemetry",
		ReportType:      "Report",
		EnumTypes: []string{
			"internal/sim.msgKind",
			"internal/sim.PlacementKind",
			"internal/sim.BlockPredKind",
			"internal/sim.fetchAction",
			"internal/isa.Opcode",
			"internal/isa.Slot",
			"internal/isa.TargetKind",
			"internal/isa.PredMode",
			"internal/core.RecoveryScheme",
			"internal/core.IssuePolicy",
			"internal/account.Bucket",
			"internal/account.EventKind",
			"internal/obs.EventKind",
			"internal/obs.Phase",
		},
		// The concurrent sweep layer: mutex discipline and cancellation
		// are audited everywhere a worker pool, drain or status server lives.
		LockPkgs:  []string{"internal/sweep", "internal/obs", "internal/obs/status"},
		CtxPkgs:   []string{"internal/sweep", "internal/obs", "internal/obs/status"},
		SchemaDir: "internal/lint/schemas",
	}
}

// Result is one lint run: the diagnostics plus any configured anchors the
// module simply does not have (absent anchors disable their checks, which
// is fine for fixture modules but must be caught on the real tree — the
// self-audit test asserts Missing is empty).
type Result struct {
	Diags   []Diag   `json:"diagnostics"`
	Missing []string `json:"missing_anchors,omitempty"`
}

type pass struct {
	mod     *Module
	cfg     *Config
	diags   []Diag
	missing []string

	// //lint: annotation state (see annotations.go): parsed escapes per
	// file, and which annotation names each file was consulted for.
	annFiles     map[*ast.File][]*annotation
	annConsulted map[*ast.File]map[string]bool
}

func (p *pass) reportf(analyzer string, pos token.Pos, format string, args ...any) {
	tp := p.mod.Position(pos)
	p.diags = append(p.diags, Diag{
		File: tp.Filename, Line: tp.Line, Col: tp.Column,
		Analyzer: analyzer, Message: fmt.Sprintf(format, args...),
	})
}

func (p *pass) missingAnchor(what string) {
	p.missing = append(p.missing, what)
}

// Run executes every analyzer over the module and returns the sorted
// diagnostics.
func Run(m *Module, cfg Config) *Result {
	p := &pass{mod: m, cfg: &cfg}
	determinism(p)
	confighash(p)
	statscoverage(p)
	exhaustive(p)
	lockcheck(p)
	atomiccheck(p)
	ctxcheck(p)
	schemadrift(p)
	annotationAudit(p) // last: analyzers mark the escapes they consumed
	sort.Slice(p.diags, func(i, j int) bool {
		a, b := p.diags[i], p.diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Strings(p.missing)
	p.missing = slices.Compact(p.missing)
	return &Result{Diags: p.diags, Missing: p.missing}
}
