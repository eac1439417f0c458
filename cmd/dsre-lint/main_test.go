package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "lint", "testdata", name)
}

// TestViolationFixturesExitNonZero: every *_bad fixture module must fail
// the lint.
func TestViolationFixturesExitNonZero(t *testing.T) {
	for _, name := range []string{
		"determinism_bad", "confighash_bad", "statscoverage_bad", "exhaustive_bad",
		"lockcheck_bad", "ctxcheck_bad", "annotations_bad", "schemadrift_bad",
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			code := run([]string{"-C", fixture(name), "./..."}, &out, io.Discard)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1; output:\n%s", code, out.String())
			}
			if out.Len() == 0 {
				t.Fatalf("no diagnostics printed")
			}
		})
	}
}

// TestShippedTreeIsClean: dsre-lint ./... exits 0 on the repository itself.
func TestShippedTreeIsClean(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-C", filepath.Join("..", ".."), "./..."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
}

// TestJSONMode: -json emits parseable dsre-lint/v1 with the diagnostics.
func TestJSONMode(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-C", fixture("exhaustive_bad"), "-json", "./..."}, &out, io.Discard)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var payload struct {
		Schema string `json:"schema"`
		Diags  []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(out.Bytes(), &payload); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, out.String())
	}
	if payload.Schema != Schema {
		t.Fatalf("schema = %q, want %q", payload.Schema, Schema)
	}
	if len(payload.Diags) != 1 || payload.Diags[0].Analyzer != "exhaustive" ||
		!strings.Contains(payload.Diags[0].Message, "msgBranch") {
		t.Fatalf("unexpected diagnostics: %+v", payload.Diags)
	}
}

// TestSchemaGoldensFresh: the committed wire-schema goldens match what
// -write-schemas would regenerate from the shipped tree, byte for byte —
// the same check the CI lint job runs with a temp dir and diff -r.
func TestSchemaGoldensFresh(t *testing.T) {
	root := filepath.Join("..", "..")
	mod, err := lint.Load(root)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	schemas, err := lint.Schemas(mod)
	if err != nil {
		t.Fatalf("Schemas: %v", err)
	}
	dir := filepath.Join(root, filepath.FromSlash(lint.DefaultConfig().SchemaDir))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read schema dir: %v", err)
	}
	onDisk := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		onDisk[e.Name()] = true
		want, ok := schemas[e.Name()]
		if !ok {
			t.Errorf("stale golden %s: no package declares these schemas", e.Name())
			continue
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("golden %s is out of date — run dsre-lint -write-schemas", e.Name())
		}
	}
	for name := range schemas {
		if !onDisk[name] {
			t.Errorf("missing golden %s — run dsre-lint -write-schemas", name)
		}
	}
}

// TestWriteSchemas: -write-schemas populates an empty directory and prunes
// goldens whose packages no longer declare schemas.
func TestWriteSchemas(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "internal-gone.json")
	if err := os.WriteFile(stale, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run([]string{"-C", fixture("schemadrift_ok"), "-write-schemas", "-schemas-dir", dir}, &out, io.Discard)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	want, err := os.ReadFile(filepath.Join(fixture("schemadrift_ok"), "internal", "lint", "schemas", "internal-api.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "internal-api.json"))
	if err != nil {
		t.Fatalf("golden not written: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("written golden differs from fixture golden")
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale golden was not pruned (err=%v)", err)
	}
	if !strings.Contains(out.String(), "removed stale internal-gone.json") {
		t.Fatalf("missing prune notice:\n%s", out.String())
	}
}

// TestFixReport: -fix-report aggregates diagnostics per analyzer/package
// and still exits nonzero on a dirty tree.
func TestFixReport(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-C", fixture("lockcheck_bad"), "-fix-report", "./..."}, &out, io.Discard)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "lockcheck") || !strings.Contains(s, "internal/sweep") {
		t.Fatalf("report missing analyzer/package row:\n%s", s)
	}
	if !strings.Contains(s, "2 diagnostics in 1 packages") {
		t.Fatalf("unexpected totals line:\n%s", s)
	}

	// The fixture modules are deliberately missing anchors, so the clean
	// path runs against the shipped tree, where every anchor resolves.
	out.Reset()
	code = run([]string{"-C", filepath.Join("..", ".."), "-fix-report", "./..."}, &out, io.Discard)
	if code != 0 {
		t.Fatalf("shipped tree: exit code = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "clean (0 diagnostics)") {
		t.Fatalf("shipped tree report:\n%s", out.String())
	}
}

// TestBadPatternRejected: only whole-module patterns are meaningful.
func TestBadPatternRejected(t *testing.T) {
	code := run([]string{"./internal/sim"}, io.Discard, io.Discard)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}
