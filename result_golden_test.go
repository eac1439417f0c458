package repro_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

var updateResultGolden = flag.Bool("update", false, "rewrite testdata/result_digests.txt from the current tree")

// resultGoldenPath pins one SHA-256 digest of the JSON-encoded Result per
// matrix point.  It is regenerated only deliberately (go test -run
// TestResultGolden -update .), so a change that claims to preserve
// simulated behaviour but moves any counter fails here even when both of
// its own code paths agree with each other.
const resultGoldenPath = "testdata/result_digests.txt"

// goldenSizes keep each conflict kernel to a few milliseconds of
// simulation even on the 32-frame machine.
var goldenSizes = map[string]int{
	"histogram": 256, "bank": 256, "hashmap": 256, "stencil": 128, "cursor": 256,
}

// goldenMachines are the paper's default window and its 4K-instruction
// window (32 frames on an 8×8 grid).
var goldenMachines = []struct {
	name string
	cfg  repro.Config
}{
	{"f8", repro.Config{}},
	{"f32g8", repro.Config{Frames: 32, GridWidth: 8, GridHeight: 8}},
}

// goldenSchemes covers every LSQ issue policy: conservative deferral, the
// guarded replay of flushed loads (aggressive+flush), store-set deferral
// under both recoveries, and oracle deferral.
var goldenSchemes = []string{"storeset+flush", "dsre", "oracle", "conservative", "aggressive+flush", "storeset+dsre"}

// resultDigests runs the golden matrix and returns one "kernel/scheme/machine
// hex-sha256" line per point, the digest taken over the Result's JSON
// encoding.
func resultDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, k := range conflictKernels {
		for _, s := range goldenSchemes {
			for _, m := range goldenMachines {
				cfg := m.cfg
				cfg.Workload, cfg.Scheme, cfg.Size = k, s, goldenSizes[k]
				r, err := repro.Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", k, s, m.name, err)
				}
				b, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				lines = append(lines, k+"/"+s+"/"+m.name+" "+hex.EncodeToString(sum[:]))
			}
		}
	}
	return lines
}

// TestResultGolden compares every simulated result of the compact
// conflict-kernel matrix against digests committed from an earlier tree.
func TestResultGolden(t *testing.T) {
	lines := resultDigests(t)
	if *updateResultGolden {
		if err := os.MkdirAll(filepath.Dir(resultGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(resultGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Errorf("golden has %d points, matrix has %d", len(want), len(lines))
	}
	for _, line := range lines {
		name, g, _ := strings.Cut(line, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: missing from %s", name, resultGoldenPath)
		} else if g != w {
			t.Errorf("%s: result digest %s, golden %s (simulated behaviour moved)", name, g[:12], w[:12])
		}
	}
}
