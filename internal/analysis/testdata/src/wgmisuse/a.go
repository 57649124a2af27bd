// Package wgmisuse holds the WaitGroup races that the go-statement analyzer
// reports: an Add inside the goroutine it counts. Each is reported at its
// go statement.
package wgmisuse

import (
	"sync"

	"cancel"
)

func work(int) {}

// addInsideGoroutine races: Wait can observe a zero counter and return
// before the goroutine has registered itself.
func addInsideGoroutine() {
	var wg sync.WaitGroup
	go func() { // want "go statement outside internal/cancel"
		wg.Add(1)
		defer wg.Done()
		work(0)
	}()
	wg.Wait()
}

// addInsideNested hides the Add in a nested literal.
func addInsideNested(wg *sync.WaitGroup) {
	go func() { // want "go statement outside internal/cancel"
		func() {
			wg.Add(1)
		}()
		defer wg.Done()
		work(0)
	}()
}

// countedByGo is the sanctioned shape: cancel.Go counts the goroutine
// before it runs; nothing to report.
func countedByGo() {
	cancel.Go(1, func(int) { work(0) })()
}
