// Package status carries broken //lint: annotations: the audit fixture.
package status

import "time"

// Spin blocks forever; its escape is missing the justification.
func Spin(stop chan struct{}) {
	//lint:ctxcheck
	for {
		<-stop
		time.Sleep(time.Millisecond)
	}
}

// Idle no longer blocks, so its escape is stale.
func Idle() int {
	total := 0
	//lint:ctxcheck — kept for a loop that no longer blocks
	for i := 0; i < 3; i++ {
		total += i
	}
	return total
}

// Typo carries a misspelled annotation name.
func Typo() {
	//lint:lockchek — the name is misspelled
	_ = 0
}
