// Package cancel stands in for internal/cancel, the one package whose go
// statements gostmt leaves alone.
package cancel

import "sync"

// Go calls fn(0..n-1) on n goroutines and returns their wait.
func Go(n int, fn func(i int)) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	return wg.Wait
}
