package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPhaseJSONSpelling pins the phase wire spellings: every declared
// phase marshals to its String form, has a real name, and no two phases
// share one.
func TestPhaseJSONSpelling(t *testing.T) {
	seen := map[string]Phase{}
	for p := PhaseQueueWait; p <= PhaseStoreWrite; p++ {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: marshal: %v", p, err)
		}
		if want := `"` + p.String() + `"`; string(b) != want {
			t.Errorf("phase %d marshals to %s, want %s", uint8(p), b, want)
		}
		if strings.HasPrefix(p.String(), "Phase(") {
			t.Errorf("phase %d has no wire spelling", uint8(p))
		}
		if q, dup := seen[p.String()]; dup {
			t.Errorf("phases %d and %d share the spelling %q", uint8(q), uint8(p), p.String())
		}
		seen[p.String()] = p
	}
}
