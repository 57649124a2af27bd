package graph_test

import (
	"testing"

	// An external test package, since graphtest imports graph.
	. "hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

func TestSequentialIDs(t *testing.T) {
	ids := SequentialIDs(4)
	if err := ids.Validate(4, 4); err != nil {
		t.Fatal(err)
	}
	if ids[0] != 1 || ids[3] != 4 {
		t.Errorf("ids = %v, want [1 2 3 4]", ids)
	}
}

func TestIDsValidate(t *testing.T) {
	tests := []struct {
		name    string
		ids     IDs
		n, max  int
		wantErr bool
	}{
		{"ok", IDs{3, 1, 2}, 3, 3, false},
		{"ok no max", IDs{100, 7}, 2, 0, false},
		{"wrong size", IDs{1, 2}, 3, 3, true},
		{"duplicate", IDs{1, 1}, 2, 3, true},
		{"zero id", IDs{0, 1}, 2, 3, true},
		{"over max", IDs{1, 9}, 2, 3, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.ids.Validate(tt.n, tt.max)
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestNodeWithID(t *testing.T) {
	ids := IDs{5, 2, 9}
	if got := ids.NodeWithID(2); got != 1 {
		t.Errorf("NodeWithID(2) = %d, want 1", got)
	}
	if got := ids.NodeWithID(7); got != -1 {
		t.Errorf("NodeWithID(7) = %d, want -1", got)
	}
}

func TestIDsMax(t *testing.T) {
	if got := (IDs{3, 8, 1}).Max(); got != 8 {
		t.Errorf("Max() = %d, want 8", got)
	}
	if got := (IDs{}).Max(); got != 0 {
		t.Errorf("Max() = %d, want 0", got)
	}
}

func TestSameOrder(t *testing.T) {
	tests := []struct {
		name string
		a, b IDs
		want bool
	}{
		{"identical", IDs{1, 2, 3}, IDs{1, 2, 3}, true},
		{"shifted", IDs{1, 2, 3}, IDs{10, 20, 30}, true},
		{"swapped", IDs{1, 2, 3}, IDs{2, 1, 3}, false},
		{"different length", IDs{1, 2}, IDs{1, 2, 3}, false},
		{"nonuniform gaps", IDs{5, 1, 7}, IDs{50, 2, 51}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.SameOrder(tt.b); got != tt.want {
				t.Errorf("SameOrder = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEnumIDsCount(t *testing.T) {
	// 2 nodes from [1,3]: 3*2 = 6 injective assignments.
	count := 0
	EnumIDs(2, 3, func(ids IDs) bool {
		if err := ids.Validate(2, 3); err != nil {
			t.Fatalf("enumerated invalid IDs: %v", err)
		}
		count++
		return true
	})
	if count != 6 {
		t.Errorf("enumerated %d assignments, want 6", count)
	}
}

func TestEnumIDsTooFew(t *testing.T) {
	called := false
	EnumIDs(3, 2, func(IDs) bool {
		called = true
		return true
	})
	if called {
		t.Error("EnumIDs with maxID < n should enumerate nothing")
	}
}

func TestEnumGraphsCount(t *testing.T) {
	// 2^3 = 8 graphs on 3 nodes; 4 of them connected.
	if got := CountGraphs(3, func(*Graph) bool { return true }); got != 8 {
		t.Errorf("graphs on 3 nodes = %d, want 8", got)
	}
	if got := CountGraphs(3, (*Graph).Connected); got != 4 {
		t.Errorf("connected graphs on 3 nodes = %d, want 4", got)
	}
}

func TestEnumConnectedGraphs(t *testing.T) {
	count := 0
	EnumConnectedGraphs(4, func(g *Graph) bool {
		if !g.Connected() {
			t.Fatal("enumerated disconnected graph")
		}
		count++
		return true
	})
	// Known: 38 connected labeled graphs on 4 nodes.
	if count != 38 {
		t.Errorf("connected graphs on 4 nodes = %d, want 38", count)
	}
}

func TestEnumLabelings(t *testing.T) {
	count := 0
	EnumLabelings(3, 2, func(lab []int) bool {
		for _, x := range lab {
			if x < 0 || x >= 2 {
				t.Fatalf("label out of range: %v", lab)
			}
		}
		count++
		return true
	})
	if count != 8 {
		t.Errorf("labelings = %d, want 8", count)
	}
	EnumLabelings(2, 0, func([]int) bool {
		t.Fatal("empty alphabet should enumerate nothing")
		return false
	})
}

func TestCombinations(t *testing.T) {
	var got [][]int
	Combinations(4, 2, func(c []int) bool {
		// The yielded slice is reused across calls; copy to retain.
		got = append(got, append([]int(nil), c...))
		return true
	})
	if len(got) != 6 {
		t.Fatalf("C(4,2) enumerated %d, want 6", len(got))
	}
	if got[0][0] != 0 || got[0][1] != 1 {
		t.Errorf("first combination = %v, want [0 1]", got[0])
	}
	Combinations(3, 5, func([]int) bool {
		t.Fatal("k > n should enumerate nothing")
		return false
	})
}

func TestIsomorphic(t *testing.T) {
	tests := []struct {
		name string
		a, b *Graph
		want bool
	}{
		{"same path", Path(4), Path(4), true},
		{"relabeled path", Path(3), MustFromEdges(3, [][2]int{{0, 2}, {2, 1}}), true},
		{"path vs star", Path(4), Star(4), false},
		{"cycle sizes", MustCycle(4), MustCycle(5), false},
		{"k33 vs c6", graphtest.CompleteBipartite(3, 3), MustCycle(6), false},
		{"empty", New(0), New(0), true},
		{"petersen to itself", Petersen(), Petersen(), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Isomorphic(tt.a, tt.b); got != tt.want {
				t.Errorf("Isomorphic = %v, want %v", got, tt.want)
			}
		})
	}
}
