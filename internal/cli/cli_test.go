package cli

import (
	"strconv"
	"strings"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

func TestParseGraph(t *testing.T) {
	tests := []struct {
		spec    string
		wantN   int
		wantErr bool
	}{
		{"path:5", 5, false},
		{"cycle:6", 6, false},
		{"cycle:2", 0, true},
		{"star:4", 4, false},
		{"complete:3", 3, false},
		{"binarytree:3", 7, false},
		{"grid:3x4", 12, false},
		{"grid:3", 0, true},
		{"torus:3x3", 9, false},
		{"torus:2x3", 0, true},
		{"spider:2,2,2", 7, false},
		{"watermelon:2,4,2", 7, false},
		{"watermelon:1", 0, true},
		{"petersen", 10, false},
		{"path:x", 0, true},
		{"path:-1", 0, true},
		{"unknown:3", 0, true},
		{"grid:axb", 0, true},
		{"spider:2,x", 0, true},
		{"path:0", 0, true},
		{"cycle:0", 0, true},
		{"star:0", 0, true},
		{"complete:0", 0, true},
		{"binarytree:0", 0, true},
		{"grid:0x4", 0, true},
		{"grid:3x0", 0, true},
		{"torus:0x3", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			g, err := ParseGraph(tt.spec)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
			if err == nil && g.N() != tt.wantN {
				t.Errorf("N = %d, want %d", g.N(), tt.wantN)
			}
		})
	}
}

// FuzzParseGraph: no spec may panic or build more than the spec limit;
// every accepted spec yields a valid graph. binarytree:63 used to panic in
// makeslice and binarytree:64 used to return an empty graph.
func FuzzParseGraph(f *testing.F) {
	for _, s := range []string{
		"path:5", "cycle:6", "grid:3x4", "torus:3x3", "star:4", "complete:3", "binarytree:3",
		"spider:2,2,2", "watermelon:2,4,2", "petersen", "binarytree:63", "binarytree:64",
		"complete:100000", "grid:65536x65536", "path:-1", "unknown:3",
		"path:0", "grid:0x3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := ParseGraph(spec)
		if err != nil {
			return
		}
		if g == nil {
			t.Fatalf("spec %q: nil graph without error", spec)
		}
		if g.N() == 0 {
			t.Fatalf("spec %q: accepted a graph with no nodes", spec)
		}
		if g.N()+g.M() > maxSpecSize {
			t.Fatalf("spec %q built %d nodes and %d edges, over the limit %d", spec, g.N(), g.M(), maxSpecSize)
		}
		if arg, ok := strings.CutPrefix(spec, "binarytree:"); ok {
			if levels, _ := strconv.Atoi(arg); levels >= 1 && g.N() != 1<<levels-1 {
				t.Fatalf("spec %q built %d nodes, want %d", spec, g.N(), 1<<levels-1)
			}
		}
	})
}

func TestParseGraphStructure(t *testing.T) {
	g, err := ParseGraph("watermelon:2,2")
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := graphtest.WatermelonEndpoints()
	if !graph.IsWatermelon(g, v1, v2) {
		t.Error("parsed watermelon is not a watermelon")
	}
}
