package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/account"
	"repro/internal/explain"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// ExplainSchema identifies the -json output format (see internal/explain).
const ExplainSchema = explain.Schema

// run is the CLI body; main exits with its return value.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsre-explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit a dsre-explain/v1 JSON document instead of text")
	top := fs.Int("top", 10, "how many hot loads/blocks/stores to show")
	diff := fs.Bool("diff", false, "compare exactly two reports (base, new)")
	tol := fs.Float64("tolerance", 0, "relative IPC change -diff accepts before exiting 3")
	manifest := fs.String("manifest", "", "sweep manifest to explain (requires -cache)")
	cacheDir := fs.String("cache", "", "sweep result cache directory for -manifest")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var runs []explain.RunView
	switch {
	case *manifest != "":
		st, rc := openStore(*cacheDir, stderr)
		if rc != 0 {
			return rc
		}
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "dsre-explain: -manifest takes no report files")
			return 2
		}
		var missing int
		var err error
		runs, missing, err = loadManifestRuns(*manifest, st)
		if err != nil {
			fmt.Fprintf(stderr, "dsre-explain: %v\n", err)
			return 1
		}
		if missing > 0 {
			// Not fatal: the cache may have been pruned or written by an
			// older simulator version; explain what is still there.
			fmt.Fprintf(stderr, "dsre-explain: %d completed jobs missing from cache\n", missing)
		}
	case *diff:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dsre-explain: -diff needs exactly two report files")
			return 2
		}
		return runDiff(fs.Arg(0), fs.Arg(1), *tol, *jsonOut, stdout, stderr)
	default:
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "usage: dsre-explain [-json] [-top N] report.json...")
			fmt.Fprintln(stderr, "       dsre-explain -manifest sweep-manifest.json -cache DIR")
			fmt.Fprintln(stderr, "       dsre-explain -diff base.json new.json [-tolerance F]")
			return 2
		}
		for _, path := range fs.Args() {
			rep, err := telemetry.ReadReport(path)
			if err != nil {
				fmt.Fprintf(stderr, "dsre-explain: %v\n", err)
				return 1
			}
			runs = append(runs, explain.View(path, rep, *top))
		}
	}

	if *jsonOut {
		return emitJSON(stdout, stderr, explain.Doc{Schema: explain.Schema, Runs: runs})
	}
	for i := range runs {
		printRun(stdout, &runs[i], *top)
	}
	return 0
}

// openStore opens the -manifest payload source, the sweep's cache directory.
func openStore(cacheDir string, stderr io.Writer) (*sweep.DirStore, int) {
	if cacheDir == "" {
		fmt.Fprintln(stderr, "dsre-explain: -manifest requires -cache")
		return nil, 2
	}
	st, err := sweep.OpenStore(cacheDir)
	if err != nil {
		fmt.Fprintf(stderr, "dsre-explain: %v\n", err)
		return nil, 1
	}
	return st, 0
}

// loadManifestRuns explains every completed job of a sweep from its store,
// also reporting how many completed jobs had no cached payload.
func loadManifestRuns(path string, st *sweep.DirStore) ([]explain.RunView, int, error) {
	m, err := sweep.ReadManifest(path)
	if err != nil {
		return nil, 0, err
	}
	var runs []explain.RunView
	missing := 0
	for _, j := range m.Jobs {
		if j.Status != sweep.StatusOK {
			continue
		}
		rec, err := st.Get(j.Hash)
		if err != nil {
			return nil, 0, err
		}
		if rec == nil {
			missing++
			continue
		}
		runs = append(runs, explain.View(j.Spec.Name(), rec.Report, 0))
	}
	if len(runs) == 0 {
		return nil, missing, fmt.Errorf("manifest %s: no completed jobs found in the cache", path)
	}
	return runs, missing, nil
}

func printRun(w io.Writer, v *explain.RunView, top int) {
	fmt.Fprintf(w, "== %s / %s", v.Workload, v.Scheme)
	if v.Size > 0 {
		fmt.Fprintf(w, " (size %d)", v.Size)
	}
	fmt.Fprintf(w, " — %s ==\n", v.Source)
	fmt.Fprintf(w, "  IPC %.3f  (%d instructions over %d cycles, %d blocks)\n",
		v.IPC, v.Insts, v.Cycles, v.Blocks)

	if len(v.CPIShare) == 0 {
		fmt.Fprintf(w, "  no cycle accounting in this report (rerun with a current dsre-sim)\n")
	} else {
		fmt.Fprintf(w, "  cpi stack (%d cycles, %d slot/cycle):\n", v.Cycles, account.SlotsPerCycle)
		for _, s := range v.CPIShare {
			if s.Slots == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-9s %10d  %5.1f%%  %s\n", s.Bucket, s.Slots, s.Pct, bar(s.Pct, 30))
		}
	}

	f := &v.Forensics
	fmt.Fprintf(w, "  forensics: %d repairs (%d flush, %d wave, %d vp)  reexecs %d attributed + %d unattributed  wasted %d  squash-equivalent %d  max wave depth %d\n",
		f.Events, f.FlushEvents, f.WaveEvents, f.VPEvents,
		f.WaveReexecs, f.UnattributedReexecs, f.WastedReexecs, f.SquashCost, f.MaxDepth)

	if len(v.HotBlocks) > 0 {
		fmt.Fprintf(w, "  hot blocks:\n")
		for _, b := range v.HotBlocks {
			fmt.Fprintf(w, "    %-6s repairs %-6d reexecs %-6d squash-equivalent %d\n",
				b.Block, b.Events, b.Reexecs, b.SquashCost)
		}
	}
	loads := f.Loads
	if top > 0 && len(loads) > top {
		loads = loads[:top]
	}
	if len(loads) > 0 {
		fmt.Fprintf(w, "  hot loads:\n")
		for _, p := range loads {
			fmt.Fprintf(w, "    %-10s repairs %-5d (flush %d, wave %d, vp %d)  reexecs %-5d wasted %-4d depth %d",
				p.LoadPC, p.Events, p.Flushes, p.Waves, p.VPRepairs, p.Reexecs, p.Wasted, p.MaxDepth)
			if len(p.TopStores) > 0 {
				var st []string
				n := len(p.TopStores)
				if top > 0 && n > top {
					n = top
				}
				for _, s := range p.TopStores[:n] {
					st = append(st, fmt.Sprintf("%s×%d", s.StorePC, s.Count))
				}
				fmt.Fprintf(w, "  stores: %s", strings.Join(st, " "))
			}
			fmt.Fprintln(w)
		}
	}
}

// bar renders pct (0..100) as a proportional ASCII bar of the given width.
func bar(pct float64, width int) string {
	n := int(pct/100*float64(width) + 0.5)
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

func runDiff(pathA, pathB string, tol float64, jsonOut bool, stdout, stderr io.Writer) int {
	a, err := telemetry.ReadReport(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "dsre-explain: %v\n", err)
		return 1
	}
	b, err := telemetry.ReadReport(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "dsre-explain: %v\n", err)
		return 1
	}
	d := explain.Diff(pathA, pathB, a, b, tol)

	if jsonOut {
		if rc := emitJSON(stdout, stderr, explain.Doc{Schema: explain.Schema, Diff: &d}); rc != 0 {
			return rc
		}
	} else {
		fmt.Fprintf(stdout, "IPC %.3f → %.3f (%+.2f%%, tolerance %.2f%%)\n",
			d.IPCA, d.IPCB, 100*d.IPCDeltaRel, 100*tol)
		for _, s := range d.CPIShift {
			fmt.Fprintf(stdout, "  %-9s %5.1f%% → %5.1f%%  (%+.1f pts)\n", s.Bucket, s.APct, s.BPct, s.Delta)
		}
	}
	if !d.Within {
		fmt.Fprintf(stderr, "dsre-explain: IPC moved %+.2f%%, beyond tolerance %.2f%%\n",
			100*d.IPCDeltaRel, 100*tol)
		return 3
	}
	return 0
}

func emitJSON(stdout, stderr io.Writer, doc explain.Doc) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(stderr, "dsre-explain: %v\n", err)
		return 1
	}
	return 0
}
