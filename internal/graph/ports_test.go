package graph

import (
	"fmt"
	"testing"
)

func TestDefaultPorts(t *testing.T) {
	g := Star(4)
	pt := DefaultPorts(g)
	if err := pt.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Center 0 has neighbors 1,2,3 behind ports 1,2,3.
	for p := 1; p <= 3; p++ {
		w, err := pt.NeighborAt(0, p)
		if err != nil {
			t.Fatal(err)
		}
		if w != p {
			t.Errorf("NeighborAt(0,%d) = %d, want %d", p, w, p)
		}
	}
	if got := pt.MustPort(1, 0); got != 1 {
		t.Errorf("MustPort(1,0) = %d, want 1", got)
	}
}

func TestPortsFromPermErrors(t *testing.T) {
	g := Path(3)
	tests := []struct {
		name string
		perm [][]int
	}{
		{"wrong rows", [][]int{{0}}},
		{"wrong row len", [][]int{{0}, {0}, {0}}},
		{"not a permutation", [][]int{{0}, {0, 0}, {0}}},
		{"out of range", [][]int{{1}, {0, 1}, {0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := PortsFromPerm(g, tt.perm); err == nil {
				t.Error("invalid permutation accepted")
			}
		})
	}
}

func TestPortsFromPermReversed(t *testing.T) {
	g := Path(3) // node 1 has neighbors [0, 2]
	pt, err := PortsFromPerm(g, [][]int{{0}, {1, 0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Port 1 of node 1 now leads to neighbor index 1, i.e. node 2.
	w, err := pt.NeighborAt(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Errorf("NeighborAt(1,1) = %d, want 2", w)
	}
	if pt.MustPort(1, 0) != 2 {
		t.Errorf("MustPort(1,0) = %d, want 2", pt.MustPort(1, 0))
	}
}

func TestPortErrors(t *testing.T) {
	g := Path(3)
	pt := DefaultPorts(g)
	if _, err := pt.NeighborAt(0, 5); err == nil {
		t.Error("out-of-range port accepted")
	}
	if _, err := pt.NeighborAt(-1, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := pt.Port(0, 2); err == nil {
		t.Error("non-neighbor port lookup succeeded")
	}
	if _, err := pt.Port(17, 0); err == nil {
		t.Error("out-of-range node accepted in Port")
	}
}

func TestPortRoundTrip(t *testing.T) {
	g := Grid(3, 3)
	pt := DefaultPorts(g)
	for v := 0; v < g.N(); v++ {
		for p := 1; p <= pt.DegreeOf(v); p++ {
			w, err := pt.NeighborAt(v, p)
			if err != nil {
				t.Fatal(err)
			}
			back, err := pt.Port(v, w)
			if err != nil {
				t.Fatal(err)
			}
			if back != p {
				t.Errorf("port round trip at (%d,%d): got %d", v, p, back)
			}
		}
	}
}

func TestEnumPortsCount(t *testing.T) {
	// Path on 3 nodes: degrees 1,2,1 -> 1!*2!*1! = 2 port assignments.
	g := Path(3)
	count := 0
	EnumPorts(g, func(pt *Ports) bool {
		if err := pt.Validate(g); err != nil {
			t.Fatalf("enumerated invalid ports: %v", err)
		}
		count++
		return true
	})
	if count != 2 {
		t.Errorf("enumerated %d port assignments, want 2", count)
	}
}

func TestEnumPortsEarlyStop(t *testing.T) {
	g := MustCycle(4) // 2^4 = 16 assignments
	count := 0
	EnumPorts(g, func(*Ports) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop after %d, want 3", count)
	}
}

func TestInducedPortsKeepsOriginalNumbers(t *testing.T) {
	// Star(5): hub 0 with leaves 1..4 behind ports 1..4. Drop leaves 1 and
	// 3; the survivors must keep their original port numbers at the hub,
	// with gaps where the vanished edges were.
	g := Star(5)
	pt := DefaultPorts(g)
	sub, orig := g.InducedSubgraph([]int{0, 2, 4})
	ip, err := InducedPorts(pt, sub, orig)
	if err != nil {
		t.Fatal(err)
	}
	// orig is sorted: sub node 0 = hub, 1 = leaf 2, 2 = leaf 4.
	if p, err := ip.Port(0, 1); err != nil || p != 2 {
		t.Errorf("Port(hub, leaf2) = %d,%v, want 2", p, err)
	}
	if p, err := ip.Port(0, 2); err != nil || p != 4 {
		t.Errorf("Port(hub, leaf4) = %d,%v, want 4", p, err)
	}
	// NeighborAt resolves surviving ports and errors on gaps.
	if w, err := ip.NeighborAt(0, 2); err != nil || w != 1 {
		t.Errorf("NeighborAt(hub, 2) = %d,%v", w, err)
	}
	for _, gap := range []int{1, 3} {
		if _, err := ip.NeighborAt(0, gap); err == nil {
			t.Errorf("gap port %d resolved", gap)
		}
	}
	// The partial assignment is not a valid Section 2.2 assignment for the
	// subgraph — by design.
	if err := ip.Validate(sub); err == nil {
		t.Error("partial induced assignment validated")
	}
	// Leaves keep port 1 to the hub; MustPort works on surviving edges.
	if ip.MustPort(1, 0) != 1 || ip.MustPort(2, 0) != 1 {
		t.Error("leaf ports renumbered")
	}
}

func TestInducedPortsFullSubgraphIsOriginal(t *testing.T) {
	// Keeping every node reproduces the original assignment exactly (and
	// therefore validates).
	g := Grid(3, 3)
	pt := DefaultPorts(g)
	keep := make([]int, g.N())
	for v := range keep {
		keep[v] = v
	}
	sub, orig := g.InducedSubgraph(keep)
	ip, err := InducedPorts(pt, sub, orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Validate(sub); err != nil {
		t.Errorf("full restriction invalid: %v", err)
	}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if ip.MustPort(v, w) != pt.MustPort(v, w) {
				t.Fatalf("port (%d,%d) changed", v, w)
			}
		}
	}
}

func TestInducedPortsErrors(t *testing.T) {
	g := Path(4)
	pt := DefaultPorts(g)
	sub, orig := g.InducedSubgraph([]int{0, 1})
	if _, err := InducedPorts(pt, sub, orig[:1]); err == nil {
		t.Error("mismatched orig length accepted")
	}
	// A stale orig mapping pointing at non-neighbors must surface the
	// underlying port lookup error.
	if _, err := InducedPorts(pt, sub, []int{0, 3}); err == nil {
		t.Error("non-edge mapping accepted")
	}
}

// TestValidateRejects: each way a table can fail to number g's edges is an
// error, a repeated neighbor included however far apart its ports are.
func TestValidateRejects(t *testing.T) {
	g := Star(4) // hub 0, leaves 1..3
	for _, tc := range []struct {
		name string
		rows [][]int
	}{
		{"missing node", [][]int{{1, 2, 3}, {0}, {0}}},
		{"short row", [][]int{{1, 2}, {0}, {0}, {0}}},
		{"non-neighbor", [][]int{{1, 2, 3}, {0}, {3}, {0}}},
		{"gap", [][]int{{1, -1, 3}, {0}, {0}, {0}}},
		{"adjacent repeat", [][]int{{1, 1, 3}, {0}, {0}, {0}}},
		{"distant repeat", [][]int{{3, 2, 3}, {0}, {0}, {0}}},
	} {
		if err := (&Ports{nbrByPort: tc.rows}).Validate(g); err == nil {
			t.Errorf("%s: Validate accepted %v", tc.name, tc.rows)
		}
	}
	if err := (&Ports{nbrByPort: [][]int{{3, 1, 2}, {0}, {0}, {0}}}).Validate(g); err != nil {
		t.Errorf("Validate rejected a permuted hub row: %v", err)
	}
}

// NeighborAt returns the neighbor of v behind port p (1-based), or an error
// if p is not a valid port of v.
func (pt *Ports) NeighborAt(v, p int) (int, error) {
	if v < 0 || v >= len(pt.nbrByPort) {
		return 0, fmt.Errorf("node %d out of range", v)
	}
	if p < 1 || p > len(pt.nbrByPort[v]) {
		return 0, fmt.Errorf("port %d out of range [1,%d] at node %d", p, len(pt.nbrByPort[v]), v)
	}
	if w := pt.nbrByPort[v][p-1]; w >= 0 {
		return w, nil
	}
	// Gap in a partial assignment (see InducedPorts): the port number was
	// held by an edge that does not survive in the restricted graph.
	return 0, fmt.Errorf("port %d of node %d is unassigned in this restriction", p, v)
}

// DegreeOf returns the number of ports at v.
func (pt *Ports) DegreeOf(v int) int { return len(pt.nbrByPort[v]) }
