// Fixture for the decoderpurity analyzer: Decide bodies that write
// receiver fields, package-level variables, or their view argument are
// seeded violations; pure decoders and non-decoder methods stay clean.
package decoderpurity

import "view"

var calls int

// badStateful keeps a counter across invocations — the archetypal
// statefulness bug.
type badStateful struct{ count int }

func (d *badStateful) Rounds() int     { return 1 }
func (d *badStateful) Anonymous() bool { return true }

func (d *badStateful) Decide(mu *view.View) bool {
	d.count++           // want "write to receiver field d.count"
	calls = calls + 1   // want "write to package-level variable calls"
	return d.count%2 == 0
}

// badMutator edits the shared view in place.
type badMutator struct{}

func (d *badMutator) Rounds() int     { return 1 }
func (d *badMutator) Anonymous() bool { return true }

func (d *badMutator) Decide(mu *view.View) bool {
	mu.IDs[0] = 7                      // want "write to view argument mu.IDs"
	mu.Labels = append(mu.Labels, "x") // want "write to view argument mu.Labels"
	mu.Ports.Rows[0][1] = -1           // want "write to view argument mu.Ports"
	mu.NBound++                        // want "write to view argument mu.NBound"
	return true
}

// goodPure reads the receiver and the view and writes only locals.
type goodPure struct{ threshold int }

func (d *goodPure) Rounds() int     { return 1 }
func (d *goodPure) Anonymous() bool { return true }

func (d *goodPure) Decide(mu *view.View) bool {
	sum := 0
	for _, nbs := range mu.Adj {
		sum += len(nbs)
	}
	local := append([]string(nil), mu.Labels...)
	if len(local) > 0 {
		local[0] = "scratch"
	}
	seen := map[int]bool{}
	for _, id := range mu.IDs {
		seen[id] = true
	}
	mu = nil // reassigning the parameter variable itself is a local write
	return sum >= d.threshold
}

// Function literals with the Decide signature are held to the same
// contract.
var _ = func(mu *view.View) bool {
	mu.NBound = 3 // want "write to view argument mu.NBound"
	return false
}

var _ = func(mu *view.View) bool {
	r := mu.Radius
	return r > 0
}

// suppressed carries decoder instrumentation behind an explicit
// //lint:ignore directive; only the annotated write is silenced.
type suppressed struct{ probes, hidden int }

func (d *suppressed) Rounds() int     { return 1 }
func (d *suppressed) Anonymous() bool { return true }

func (d *suppressed) Decide(mu *view.View) bool {
	//lint:ignore decoderpurity probe bookkeeping for the test harness
	d.probes++
	d.hidden++ // want "write to receiver field d.hidden"
	//lint:ignore decoderpurity
	d.hidden++ // want "write to receiver field d.hidden"
	return true
}

// notDecoder has a Decide method with the wrong signature; it is out of
// scope and free to mutate.
type notDecoder struct{ x int }

func (n *notDecoder) Decide(a int) int {
	n.x = a
	return n.x
}
