package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestHashGoldenKeys pins three cache keys as literals, so a change to the
// hashed bytes cannot move every key of every existing cache unnoticed.
// Moving them on purpose means bumping sim.Version.
func TestHashGoldenKeys(t *testing.T) {
	for _, c := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"zero spec", JobSpec{Workload: "histogram"},
			"4a1b701c1ad00c489ff3e743fe8896e82a36007ff7d46491ddc734f6a3353e36"},
		{"every field set", JobSpec{
			Workload: "stencil", Size: 512, Unroll: 2, Seed: 7, Scheme: "storeset",
			Frames: 16, GridWidth: 8, GridHeight: 6, HopLatency: 2, LinkBandwidth: 3,
			CommitTokensFree: true, NoSuppressIdentical: true, BlockPredictor: "last",
			Placement: "chain", StoreSetSize: 2048, MemLatency: 150, DTileBanks: 3,
			LSQCapacity: 512, ValuePredict: true, SampleEvery: 100,
		}, "92ba400cd9f186843160f77799321756155fff36b0e1083dbe149a647b8d1f99"},
		// Hash does not consult the workload registry, so a name needing
		// every kind of JSON escape still hashes.
		{"escaped workload", JobSpec{Workload: "a\"b\\c<d>&eé\x01\u2028\xff", Scheme: "aggressive+dsre"},
			"364708a2aa789efd6d9881b8d66bee60329740040c9e0ec12759dad492792e68"},
	} {
		if got := mustHash(t, c.spec); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// referencePayload is the hashed encoding written the plain way: the spec's
// hashPayload through json.Marshal.
func referencePayload(t *testing.T, s JobSpec) []byte {
	t.Helper()
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := c.Config().MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(&hashPayload{
		SimVersion:  sim.Version,
		Workload:    c.Workload,
		Size:        c.Size,
		Unroll:      c.Unroll,
		Seed:        c.Seed,
		Scheme:      c.Scheme,
		Machine:     mc.Canonical(),
		SampleEvery: c.SampleEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// hashGrid is every registered workload under every scheme spelling on a
// set of machines, plus workload names around the plain-ASCII fast path.
func hashGrid() []JobSpec {
	schemes := []string{
		"", "dsre", "aggressive+dsre", "aggressive+flush", "conservative",
		"conservative+flush", "conservative+dsre", "storeset", "storeset+flush",
		"storeset+dsre", "oracle", "oracle+dsre",
	}
	machines := []JobSpec{
		{},
		{Frames: 32, GridWidth: 8, GridHeight: 8},
		{Size: 300, Unroll: 3, Seed: 1 << 63, HopLatency: 2, LinkBandwidth: 1, DTileBanks: 9,
			MemLatency: 250, StoreSetSize: 64, LSQCapacity: 1024, ValuePredict: true,
			CommitTokensFree: true, NoSuppressIdentical: true, Placement: "chain",
			BlockPredictor: "perfect", SampleEvery: 7},
	}
	var specs []JobSpec
	for _, w := range repro.Workloads() {
		for _, sc := range schemes {
			for _, m := range machines {
				m.Workload, m.Scheme = w, sc
				specs = append(specs, m)
			}
		}
	}
	// One escape each, so every byte the plain path refuses is tested alone.
	for _, w := range []string{"", "w<", "w>", "w&", `w"`, `w\`, "w\t", "w\x1f", "w\x7f", "wé", "w\u2028", "w\u2029", "w\xff", " ~"} {
		specs = append(specs, JobSpec{Workload: w})
	}
	return specs
}

// TestHashEncodingMatchesJSON holds the spliced encoding equal to
// json.Marshal(hashPayload) byte for byte, through one keyer shared by the
// whole grid (as Engine.Run hashes) and through JobSpec.Hash, and holds
// Engine.Run's keys equal to JobSpec.Hash.
func TestHashEncodingMatchesJSON(t *testing.T) {
	specs := hashGrid()
	shared := newKeyer()
	for _, s := range specs {
		want := referencePayload(t, s)
		got, err := shared.encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: encoding\n%s\nwant\n%s", s, got, want)
		}
		h, err := shared.hash(s)
		if err != nil {
			t.Fatal(err)
		}
		if one := mustHash(t, s); h != one {
			t.Fatalf("%+v: shared keyer %s, JobSpec.Hash %s", s, h, one)
		}
	}
	if n := len(shared.machines); n != 3*7 {
		t.Errorf("grid encoded %d machine configurations, want one per machine and (policy, recovery) pair (21)", n)
	}

	var valid []JobSpec
	for _, s := range specs {
		if s.Validate() == nil {
			valid = append(valid, s)
		}
	}
	stub := func(_ context.Context, s JobSpec) (*telemetry.Report, error) { return fakeReport(s), nil }
	sum, err := New(Options{Workers: 2, Runner: stub}).Run(context.Background(), valid)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range sum.Jobs {
		if want := mustHash(t, valid[i]); j.Hash != want {
			t.Errorf("%+v: Run keyed %q, JobSpec.Hash %s", valid[i], j.Hash, want)
		}
	}
}
