// Package status loops without observing cancellation: the ctxcheck
// fixture.
package status

import (
	"context"
	"time"
)

// Poll spins on a channel and a sleep with no way to stop it: finding.
func Poll(ready chan struct{}) {
	for {
		<-ready
		time.Sleep(time.Millisecond)
	}
}

// Drain ranges a channel that shutdown never closes: finding.
func Drain(ch chan int) int {
	total := 0
	for v := range ch {
		total += v
	}
	return total
}

// Wait observes ctx.Done alongside the work channel: clean.
func Wait(ctx context.Context, tick <-chan struct{}) {
	for {
		select {
		case <-tick:
		case <-ctx.Done():
			return
		}
	}
}
