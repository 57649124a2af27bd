// Package gostmt exercises the go-statement analyzer. The races a go
// statement makes easy to write have their own fixtures (loopcapture,
// wgmisuse); this one covers the rule's other shapes.
package gostmt

import "cancel"

func work(int) {}

// namedFunction starts a named function rather than a literal.
func namedFunction() {
	go work(1) // want "go statement outside internal/cancel"
}

// literal starts a literal that captures nothing.
func literal() {
	go func() { // want "go statement outside internal/cancel"
		work(0)
	}()
}

// suppressed documents a deliberate go statement.
func suppressed(done chan struct{}) {
	//lint:ignore gostmt the caller blocks on done, so the goroutine cannot outlive it
	go func() {
		work(2)
		close(done)
	}()
}

// throughCancel is the sanctioned shape; nothing to report.
func throughCancel(items []int) {
	cancel.Go(len(items), func(i int) { work(items[i]) })()
}
