// Package loopcapture holds the loop-capture races that the go-statement
// analyzer reports: a goroutine that reads loop state its starter keeps
// writing. Each is reported at its go statement.
package loopcapture

import (
	"sync"

	"cancel"
)

func work(int) {}

// capturesRangeVar closes over the range variable.
func capturesRangeVar(items []int) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func() { // want "go statement outside internal/cancel"
			defer wg.Done()
			work(it)
		}()
	}
	wg.Wait()
}

// capturesIndexVar closes over the counted loop's index.
func capturesIndexVar(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { // want "go statement outside internal/cancel"
			defer wg.Done()
			work(i)
		}()
	}
	wg.Wait()
}

// capturesLoopWrite races: cur is written each iteration and read
// concurrently by the goroutine.
func capturesLoopWrite(items []int) {
	var wg sync.WaitGroup
	var cur int
	for _, it := range items {
		cur = it * 2
		wg.Add(1)
		go func() { // want "go statement outside internal/cancel"
			defer wg.Done()
			work(cur)
		}()
	}
	wg.Wait()
}

// perIndex is the sanctioned shape: each call gets its index as an
// argument; nothing to report.
func perIndex(items []int) {
	cancel.Go(len(items), func(i int) { work(items[i]) })()
}
