// Package telemetry is the simulator's observability layer: CSV and JSON
// writers for the machine's per-window time series, a Chrome trace-event
// (catapult) exporter for trace collections, and machine-readable run
// reports.  The paper's claims are all dynamic behaviours — wave sizes,
// LSQ occupancy, re-execution bursts — so this package exists to make
// *when* and *why* a run diverges visible to humans (chrome://tracing,
// CSV) and to CI (JSON).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// csvHeader lists the CSV columns, matching the Sample JSON field names
// (the cpi_* columns flatten the nested windowed CPI stack).
var csvHeader = []string{
	"cycle", "window", "ipc", "committed_blocks", "in_flight_blocks",
	"window_insts", "lsq_occupancy", "noc_pending", "waves", "reexecs",
	"flushes", "l1d_miss_rate", "l2_miss_rate",
	"cpi_commit", "cpi_wave", "cpi_bpred", "cpi_fetch", "cpi_drain",
	"cpi_cache_miss", "cpi_issue", "cpi_noc",
}

// WriteCSV emits the windows as CSV with a header row.
func WriteCSV(w io.Writer, samples []sim.Sample) error {
	for i, h := range csvHeader {
		sep := ","
		if i == len(csvHeader)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", h, sep); err != nil {
			return err
		}
	}
	for _, v := range samples {
		_, err := fmt.Fprintf(w, "%d,%d,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%d,%d,%d,%d,%d,%d,%d,%d\n",
			v.Cycle, v.Window, v.IPC, v.CommittedBlocks, v.InFlightBlocks,
			v.WindowInsts, v.LSQOccupancy, v.NoCPending, v.Waves, v.Reexecs,
			v.Flushes, v.L1DMissRate, v.L2MissRate,
			v.CPI.Commit, v.CPI.Wave, v.CPI.BPred, v.CPI.Fetch, v.CPI.Drain,
			v.CPI.CacheMiss, v.CPI.Issue, v.CPI.NoC)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the windows as a JSON array.
func WriteJSON(w io.Writer, samples []sim.Sample) error {
	return json.NewEncoder(w).Encode(samples)
}
