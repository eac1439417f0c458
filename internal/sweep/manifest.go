package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// ManifestSchema identifies the sweep-manifest wire format.
const ManifestSchema = "dsre-sweep-manifest/v1"

// SchemaError reports a manifest whose schema stamp this build does not
// read.  It is detected before the body is decoded, so a manifest from a
// future dsre-sweep fails with a typed, explainable error instead of a
// shape-dependent unmarshal failure.
type SchemaError struct {
	Path string // file the manifest was read from
	Got  string // schema stamp found
	Want string // schema this build reads
}

func (e *SchemaError) Error() string {
	if e.Newer() {
		return fmt.Sprintf("sweep: manifest %s has schema %q, newer than this build's %q — re-run with the dsre-sweep that wrote it, or upgrade", e.Path, e.Got, e.Want)
	}
	return fmt.Sprintf("sweep: manifest %s schema %q, want %q", e.Path, e.Got, e.Want)
}

// Newer reports whether the stamp names a later version of the manifest
// family this build reads (dsre-sweep-manifest/vN with N greater).
func (e *SchemaError) Newer() bool {
	got, okG := schemaVersion(e.Got)
	want, okW := schemaVersion(e.Want)
	return okG && okW && sameSchemaFamily(e.Got, e.Want) && got > want
}

// schemaVersion parses the trailing "/vN" of a schema stamp.
func schemaVersion(s string) (int, bool) {
	i := strings.LastIndex(s, "/v")
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(s[i+2:])
	return n, err == nil
}

// sameSchemaFamily compares schema stamps with the "/vN" suffix stripped.
func sameSchemaFamily(a, b string) bool {
	trim := func(s string) string {
		if i := strings.LastIndex(s, "/v"); i >= 0 {
			return s[:i]
		}
		return s
	}
	return trim(a) == trim(b)
}

// Manifest is the machine-readable account of one sweep: every job's spec,
// hash and outcome, without the result payloads (those live in the store,
// addressed by each job's hash).  A manifest is also a runnable grid:
// dsre-sweep -resume replays its specs, so finishing an interrupted or
// partially-failed sweep needs nothing but the manifest and the cache.
type Manifest struct {
	Schema     string      `json:"schema"`
	SimVersion string      `json:"sim_version"`
	Jobs       []JobResult `json:"jobs"`
	Totals     Totals      `json:"totals"`
}

// Totals summarises a manifest's jobs.
type Totals struct {
	Jobs      int   `json:"jobs"`
	OK        int   `json:"ok"`
	Failed    int   `json:"failed"`
	CacheHits int   `json:"cache_hits"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// NewManifest builds the manifest for a summary.
func NewManifest(sum *Summary) *Manifest {
	return &Manifest{
		Schema:     ManifestSchema,
		SimVersion: sim.Version,
		Jobs:       sum.Jobs,
		Totals: Totals{
			Jobs:      len(sum.Jobs),
			OK:        sum.OK,
			Failed:    sum.Failed,
			CacheHits: sum.CacheHits,
			ElapsedMS: sum.Elapsed.Milliseconds(),
		},
	}
}

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: marshal manifest: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifest loads and schema-checks a manifest.  The schema stamp is
// probed before the body decodes: a manifest from a newer (or otherwise
// foreign) schema returns a *SchemaError instead of whatever unmarshal
// failure its changed shape would produce.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var hdr struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &hdr); err != nil {
		return nil, fmt.Errorf("sweep: parse manifest %s: %w", path, err)
	}
	if hdr.Schema != ManifestSchema {
		return nil, &SchemaError{Path: path, Got: hdr.Schema, Want: ManifestSchema}
	}
	// Unknown fields fail: a spec field this build no longer has must not
	// silently resume as a different simulation point.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("sweep: parse manifest %s: %w", path, err)
	}
	return &m, nil
}

// Specs returns the manifest's grid, in manifest order — the input for a
// resumed sweep.  Completed points replay from the cache; failed or
// never-run points recompute.
func (m *Manifest) Specs() []JobSpec {
	specs := make([]JobSpec, len(m.Jobs))
	for i := range m.Jobs {
		specs[i] = m.Jobs[i].Spec
	}
	return specs
}
