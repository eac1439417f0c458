// Package explain folds dsre-report/v1 documents into the explained form
// the dsre-explain CLI prints: IPC, the CPI stack as per-bucket shares,
// re-execution forensics, and per-block hot spots.
package explain

import (
	"sort"
	"strings"

	"repro/internal/account"
	"repro/internal/telemetry"
)

// Schema identifies the dsre-explain JSON document format.
const Schema = "dsre-explain/v1"

// RunView is one explained run.
type RunView struct {
	Source   string `json:"source"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Size     int    `json:"size,omitempty"`

	Cycles int64   `json:"cycles"`
	Insts  int64   `json:"insts"`
	Blocks int64   `json:"blocks"`
	IPC    float64 `json:"ipc"`

	// CPI is the run's cumulative cycle-accounting stack; CPIShare the same
	// stack as per-bucket fractions of the cycle budget.  Both are zero for
	// reports recorded without accounting.
	CPI       account.CPIStack `json:"cpi"`
	CPIShare  []BucketShare    `json:"cpi_share,omitempty"`
	Forensics account.Summary  `json:"forensics"`
	HotBlocks []BlockView      `json:"hot_blocks,omitempty"`
}

// BucketShare is one CPI bucket's share of the cycle budget.
type BucketShare struct {
	Bucket string  `json:"bucket"`
	Slots  int64   `json:"slots"`
	Pct    float64 `json:"pct"`
}

// BlockView aggregates forensic load profiles by static block.
type BlockView struct {
	Block      string `json:"block"`
	Events     int64  `json:"events"`
	Reexecs    int64  `json:"reexecs"`
	SquashCost int64  `json:"squash_cost"`
}

// DiffView compares two explained runs.
type DiffView struct {
	A           string        `json:"a"`
	B           string        `json:"b"`
	IPCA        float64       `json:"ipc_a"`
	IPCB        float64       `json:"ipc_b"`
	IPCDelta    float64       `json:"ipc_delta"`
	IPCDeltaRel float64       `json:"ipc_delta_rel"`
	Tolerance   float64       `json:"tolerance"`
	Within      bool          `json:"within_tolerance"`
	CPIShift    []BucketShift `json:"cpi_shift,omitempty"`
}

// BucketShift is one CPI bucket's share moving between two runs.
type BucketShift struct {
	Bucket string  `json:"bucket"`
	APct   float64 `json:"a_pct"`
	BPct   float64 `json:"b_pct"`
	Delta  float64 `json:"delta_pct"`
}

// Doc is the dsre-explain/v1 document.
type Doc struct {
	Schema string    `json:"schema"`
	Runs   []RunView `json:"runs,omitempty"`
	Diff   *DiffView `json:"diff,omitempty"`
}

// View folds one report into its explained form; top bounds the hot-block
// list (0 keeps everything).
func View(source string, rep *telemetry.Report, top int) RunView {
	v := RunView{
		Source:    source,
		Workload:  rep.Workload,
		Scheme:    rep.Scheme,
		Size:      rep.Size,
		Cycles:    rep.Cycles,
		Insts:     rep.Insts,
		Blocks:    rep.Blocks,
		IPC:       rep.IPC,
		CPI:       rep.Stats.Acct,
		Forensics: rep.Stats.Forensics,
	}
	if total := v.CPI.Total(); total > 0 {
		for b := account.Bucket(0); b < account.NumBuckets; b++ {
			n := v.CPI.Get(b)
			v.CPIShare = append(v.CPIShare, BucketShare{
				Bucket: b.String(),
				Slots:  n,
				Pct:    100 * float64(n) / float64(total),
			})
		}
	}
	v.HotBlocks = HotBlocks(v.Forensics.Loads, top)
	return v
}

// HotBlocks regroups per-load forensics by static block ("b3.i7" → "b3"),
// hottest first; top bounds the list (0 keeps everything).
func HotBlocks(loads []account.LoadProfile, top int) []BlockView {
	var blocks []BlockView
	for _, p := range loads {
		name := p.LoadPC
		if i := strings.IndexByte(name, '.'); i > 0 {
			name = name[:i]
		}
		found := false
		for j := range blocks {
			if blocks[j].Block == name {
				blocks[j].Events += p.Events
				blocks[j].Reexecs += p.Reexecs
				blocks[j].SquashCost += p.SquashCost
				found = true
				break
			}
		}
		if !found {
			blocks = append(blocks, BlockView{
				Block: name, Events: p.Events, Reexecs: p.Reexecs, SquashCost: p.SquashCost,
			})
		}
	}
	sort.SliceStable(blocks, func(a, b int) bool { return blocks[a].Events > blocks[b].Events })
	if top > 0 && len(blocks) > top {
		blocks = blocks[:top]
	}
	return blocks
}

// Diff compares two reports under a relative IPC tolerance.
func Diff(nameA, nameB string, a, b *telemetry.Report, tol float64) DiffView {
	d := DiffView{
		A: nameA, B: nameB,
		IPCA: a.IPC, IPCB: b.IPC,
		IPCDelta:  b.IPC - a.IPC,
		Tolerance: tol,
	}
	if a.IPC != 0 {
		d.IPCDeltaRel = (b.IPC - a.IPC) / a.IPC
	}
	rel := d.IPCDeltaRel
	if rel < 0 {
		rel = -rel
	}
	d.Within = rel <= tol
	ta, tb := a.Stats.Acct.Total(), b.Stats.Acct.Total()
	if ta > 0 && tb > 0 {
		for bk := account.Bucket(0); bk < account.NumBuckets; bk++ {
			ap := 100 * float64(a.Stats.Acct.Get(bk)) / float64(ta)
			bp := 100 * float64(b.Stats.Acct.Get(bk)) / float64(tb)
			if ap == 0 && bp == 0 {
				continue
			}
			d.CPIShift = append(d.CPIShift, BucketShift{
				Bucket: bk.String(), APct: ap, BPct: bp, Delta: bp - ap,
			})
		}
	}
	return d
}
