package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/account"
	"repro/internal/explain"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// writeReport simulates one run and writes its dsre-report/v1 file.
func writeReport(t *testing.T, dir, name, workload, scheme string) string {
	t.Helper()
	res, err := repro.Run(repro.Config{Workload: workload, Scheme: scheme, Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := res.Report().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExplainText(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "run.json", "histogram", "dsre")
	var out, errb bytes.Buffer
	if rc := run([]string{path}, &out, &errb); rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"histogram / dsre", "cpi stack", "commit", "forensics:", "repairs",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Violating runs should name hot loads and blocks.
	if !strings.Contains(text, "hot loads:") || !strings.Contains(text, "hot blocks:") {
		t.Errorf("histogram/dsre output has no hot loads/blocks:\n%s", text)
	}
}

func TestExplainJSONConserves(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "run.json", "histogram", "dsre")
	var out, errb bytes.Buffer
	if rc := run([]string{"-json", path}, &out, &errb); rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, errb.String())
	}
	var doc explain.Doc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if doc.Schema != ExplainSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, ExplainSchema)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	v := doc.Runs[0]
	if got, want := v.CPI.Total(), v.Cycles*account.SlotsPerCycle; got != want {
		t.Errorf("explained CPI sums to %d, want %d", got, want)
	}
	var pct float64
	for _, s := range v.CPIShare {
		pct += s.Pct
	}
	if pct < 99.9 || pct > 100.1 {
		t.Errorf("CPI shares sum to %.3f%%", pct)
	}
}

func TestExplainDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", "histogram", "dsre")
	b := writeReport(t, dir, "b.json", "vecsum", "dsre")

	var out, errb bytes.Buffer
	if rc := run([]string{"-diff", a, a}, &out, &errb); rc != 0 {
		t.Errorf("identical diff exit %d, want 0; stderr: %s", rc, errb.String())
	}
	out.Reset()
	errb.Reset()
	// Different kernels sit far apart in IPC, well beyond a 0.1% tolerance.
	if rc := run([]string{"-diff", "-tolerance", "0.001", a, b}, &out, &errb); rc != 3 {
		t.Errorf("cross-kernel diff exit %d, want 3; stdout: %s", rc, out.String())
	}
	out.Reset()
	errb.Reset()
	if rc := run([]string{"-diff", "-tolerance", "10", a, b}, &out, &errb); rc != 0 {
		t.Errorf("huge tolerance diff exit %d, want 0; stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "IPC") {
		t.Errorf("diff output missing IPC line: %s", out.String())
	}
}

func TestExplainDiffJSON(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", "vecsum", "dsre")
	var out, errb bytes.Buffer
	if rc := run([]string{"-diff", "-json", a, a}, &out, &errb); rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, errb.String())
	}
	var doc explain.Doc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Diff == nil || !doc.Diff.Within || doc.Diff.IPCDelta != 0 {
		t.Errorf("self-diff = %+v", doc.Diff)
	}
}

func TestExplainUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run(nil, &out, &errb); rc != 2 {
		t.Errorf("no args exit %d, want 2", rc)
	}
	if rc := run([]string{"-diff", "only-one.json"}, &out, &errb); rc != 2 {
		t.Errorf("-diff with one file exit %d, want 2", rc)
	}
	if rc := run([]string{"-manifest", "m.json"}, &out, &errb); rc != 2 {
		t.Errorf("-manifest without -cache exit %d, want 2", rc)
	}
	if rc := run([]string{"-manifest", "m.json", "-cache-url", "http://127.0.0.1:8177"}, &out, &errb); rc != 2 {
		t.Errorf("-cache-url (no such flag) exit %d, want 2", rc)
	}
	if rc := run([]string{"does-not-exist.json"}, &out, &errb); rc != 1 {
		t.Errorf("missing report exit %d, want 1", rc)
	}
}

func TestExplainManifestMode(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	st, err := sweep.OpenStore(cache)
	if err != nil {
		t.Fatal(err)
	}
	specs := []sweep.JobSpec{
		{Workload: "histogram", Scheme: "dsre", Size: 256},
		{Workload: "histogram", Scheme: "storeset+flush", Size: 256},
	}
	var jobs []sweep.JobResult
	for _, spec := range specs {
		hash, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		res, err := repro.Run(spec.Config())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(&sweep.Record{Hash: hash, Spec: spec, Report: res.Report()}); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, sweep.JobResult{Spec: spec, Hash: hash, Status: sweep.StatusOK})
	}
	m := sweep.NewManifest(&sweep.Summary{Jobs: jobs, OK: len(jobs)})
	mpath := filepath.Join(dir, "manifest.json")
	if err := m.WriteFile(mpath); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if rc := run([]string{"-json", "-manifest", mpath, "-cache", cache}, &out, &errb); rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, errb.String())
	}
	var doc explain.Doc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 2 {
		t.Fatalf("explained %d runs, want 2", len(doc.Runs))
	}
	for _, v := range doc.Runs {
		if v.Workload != "histogram" {
			t.Errorf("run workload = %q", v.Workload)
		}
	}
}

// TestReportViewTolerantOfMissingAccounting pins forward compatibility: a
// report written before cycle accounting existed explains without error.
func TestReportViewTolerantOfMissingAccounting(t *testing.T) {
	rep := &telemetry.Report{
		Schema: telemetry.ReportSchema, Workload: "vecsum", Scheme: "dsre",
		Cycles: 100, Insts: 200, IPC: 2,
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "old.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if rc := run([]string{path}, &out, &errb); rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "no cycle accounting") {
		t.Errorf("missing-accounting notice absent:\n%s", out.String())
	}
}
