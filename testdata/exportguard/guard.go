// Package exportguard is the fixture of the export guard's self-test: one
// export of each kind the guard must tell apart.
package exportguard

import "fmt"

// T satisfies fmt.Stringer.
type T struct{}

// String satisfies fmt.Stringer; fmt calls it, so nothing calls it by name.
func (T) String() string { return "T" }

// Recursive calls only itself; that is not a production caller.
func (T) Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return T{}.Recursive(n - 1)
}

// Used has a production caller.
func Used() string { return fmt.Sprint(T{}) }

// TestOnly is called only from a _test.go file.
func TestOnly() int { return 1 }

// Allowed has no caller but is allowlisted.
func Allowed() int { return 2 }

var _ = run

func run() string { return Used() }
