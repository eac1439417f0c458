//go:build dsre_assert

package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestAssertNegativeDelayPanics proves the dsre_assert checks are live in
// tagged builds: scheduling a message into the past must panic instead of
// silently clamping to "now".
func TestAssertNegativeDelayPanics(t *testing.T) {
	w := workload.MustBuild("vecsum", workload.Params{Size: 64})
	mc, err := New(DefaultConfig(), w.Program, &w.Regs, w.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sendAfter(-1) did not panic under -tags dsre_assert")
		}
		if !strings.Contains(fmt.Sprint(r), "negative injection delay") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	mc.sendAfter(-1, 0, 0, message{})
}
