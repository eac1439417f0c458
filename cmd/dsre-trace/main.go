// dsre-trace inspects EDGE programs: it disassembles a workload's blocks
// and profiles its dynamic behaviour on the architectural emulator
// (instruction mix, store→load dependence distances, block trace).
//
// Usage:
//
//	dsre-trace -workload stencil            # disassembly + profile
//	dsre-trace -workload bank -disasm=false # profile only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	name := flag.String("workload", "", "kernel to inspect")
	check := flag.String("check", "", "parse and validate an EDGE assembly file, then exit")
	save := flag.String("save", "", "write the workload's program as EDGE assembly to this file")
	size := flag.Int("size", 0, "workload size (0 = default)")
	unroll := flag.Int("unroll", 0, "unroll factor (0 = default)")
	seed := flag.Uint64("seed", 0, "workload seed")
	disasm := flag.Bool("disasm", true, "print block disassembly")
	dot := flag.Bool("dot", false, "emit Graphviz dataflow graphs instead of text")
	trace := flag.Int("trace", 0, "print the first N committed block IDs")
	jsonOut := flag.String("json", "", "write the dynamic profile as machine-readable JSON to this file")
	flag.Parse()

	if *check != "" {
		src, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsre-trace:", err)
			os.Exit(1)
		}
		p, err := program.Parse(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsre-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: OK — %d blocks, %d instructions\n", *check, len(p.Blocks), p.StaticInsts())
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "dsre-trace: -workload required; have", workload.Names())
		os.Exit(2)
	}
	w, err := workload.Build(*name, workload.Params{Size: *size, Unroll: *unroll, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsre-trace:", err)
		os.Exit(1)
	}

	if *save != "" {
		if err := os.WriteFile(*save, []byte(w.Program.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dsre-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *save)
		return
	}
	if *dot {
		for _, blk := range w.Program.Blocks {
			fmt.Print(program.Dot(blk))
		}
		return
	}
	fmt.Printf("workload %s — %s\n", w.Name, w.Description)
	fmt.Printf("analog: %s\n\n", w.Analog)
	if *disasm {
		fmt.Print(w.Program.String())
		fmt.Println()
	}

	res, err := w.RunEmulator(emu.Options{CollectOracle: true, TraceBlocks: *trace})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsre-trace: emulate:", err)
		os.Exit(1)
	}

	t := stats.NewTable("dynamic profile", "metric", "value")
	t.Row("blocks", res.Blocks)
	t.Row("instructions", res.Insts)
	t.Row("insts/block", float64(res.Insts)/float64(res.Blocks))
	t.Row("loads", res.Loads)
	t.Row("stores", res.Stores)
	t.Row("loads reading an earlier store's bytes", res.DependentLoads())
	fmt.Println(t)

	fmt.Println("store→load dependence distance histogram (dynamic memory ops):")
	total := res.DependentLoads()
	if total == 0 {
		fmt.Println("  (no store→load dependences)")
	}
	for i, n := range res.DepDistance {
		if n == 0 {
			continue
		}
		lo := 1 << uint(i)
		if i == 0 {
			lo = 0
		}
		fmt.Printf("  distance %6d+ : %8d (%.1f%%)\n", lo, n, 100*float64(n)/float64(total))
	}

	if *trace > 0 {
		fmt.Printf("\nfirst %d committed blocks: %v\n", len(res.BlockTrace), res.BlockTrace)
	}
	if *jsonOut != "" {
		profile := struct {
			Schema      string  `json:"schema"`
			Workload    string  `json:"workload"`
			Blocks      int64   `json:"blocks"`
			Insts       int64   `json:"insts"`
			InstsBlock  float64 `json:"insts_per_block"`
			Loads       int64   `json:"loads"`
			Stores      int64   `json:"stores"`
			StoreDeps   int64   `json:"loads_with_store_deps"`
			DepDistance []int64 `json:"dep_distance_hist"`
		}{
			Schema: "dsre-profile/v2", Workload: w.Name,
			Blocks: res.Blocks, Insts: res.Insts,
			InstsBlock: float64(res.Insts) / float64(res.Blocks),
			Loads:      res.Loads, Stores: res.Stores,
			StoreDeps: res.DependentLoads(), DepDistance: res.DepDistance[:],
		}
		data, err := json.MarshalIndent(&profile, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsre-trace:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dsre-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote profile to %s\n", *jsonOut)
	}
	if err := w.Check(&res.Regs, res.Mem); err != nil {
		fmt.Fprintln(os.Stderr, "dsre-trace: reference check FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("\nreference check: OK")
}
