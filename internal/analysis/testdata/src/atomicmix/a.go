// Package atomicmix exercises the function-style sync/atomic analyzer.
package atomicmix

import "sync/atomic"

type counters struct {
	hits   int64
	misses int64
	plain  int64
}

var global int64

// mixedField accesses hits both through sync/atomic and directly; the
// function-style call is what makes the plain twin expressible.
func mixedField(c *counters) int64 {
	atomic.AddInt64(&c.hits, 1) // want "function-style sync/atomic call atomic.AddInt64"
	c.hits++
	return c.hits
}

// mixedGlobal does the same to a package-level variable.
func mixedGlobal() int64 {
	atomic.StoreInt64(&global, 0) // want "function-style sync/atomic call atomic.StoreInt64"
	global = 7
	return atomic.LoadInt64(&global) // want "function-style sync/atomic call atomic.LoadInt64"
}

// consistent uses sync/atomic for every access, which is still one plain
// access away from a race: the typed wrappers are required.
func consistent(c *counters) int64 {
	atomic.AddInt64(&c.misses, 1)      // want "atomic.AddInt64"
	return atomic.LoadInt64(&c.misses) // want "atomic.LoadInt64"
}

// plainOnly never touches sync/atomic; plain access is fine.
func plainOnly(c *counters) int64 {
	c.plain++
	return c.plain
}

// typed uses the typed wrappers, which make mixing inexpressible.
type typed struct {
	n atomic.Int64
}

func typedOnly(t *typed) int64 {
	t.n.Add(1)
	return t.n.Load()
}

// suppressed documents a deliberate function-style call.
func suppressed(c *counters) {
	c.hits = 0
	//lint:ignore atomicmix the struct is not yet shared; constructor-time write precedes publication
	atomic.AddInt64(&c.hits, 1)
}
