package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden fault schedule traces and views in testdata/")

// goldenCases pins one recorded schedule per fault kind. Each plan is
// deliberately narrow — a single fault knob on a fixed instance — so a
// golden diff names the kind whose schedule drifted.
func goldenCases() []struct {
	kind string
	g    *graph.Graph
	r    int
	plan faults.Plan
} {
	return []struct {
		kind string
		g    *graph.Graph
		r    int
		plan faults.Plan
	}{
		{"drop", graph.MustCycle(6), 2, faults.Plan{Seed: 101, Drop: 0.3, Trace: true}},
		{"dup", graph.MustCycle(6), 2, faults.Plan{Seed: 102, Duplicate: 0.4, Trace: true}},
		{"delay", graph.Path(5), 3, faults.Plan{Seed: 103, Delay: 0.5, MaxDelay: 2, Trace: true}},
		{"reorder", graph.Star(5), 2, faults.Plan{Seed: 104, Reorder: true, Trace: true}},
		{"crash", graph.Grid(3, 3), 2, faults.Plan{Seed: 105, Crashes: map[int]int{4: 1, 7: 0}, Trace: true}},
		{"corrupt", graph.MustCycle(8), 1, faults.Plan{Seed: 106, CorruptNodes: []int{2, 6}, Trace: true}},
	}
}

// TestGoldenFaultTraces replays each pinned (instance, plan) pair and
// compares the canonical schedule trace against the committed golden file,
// bit for bit. The traces are the replay-determinism contract made
// reviewable: any change to the hash streams, the scheduler's decision
// points, or the canonical event order shows up as a diff here. Run with
// -update-golden to regenerate after an intentional change.
func TestGoldenFaultTraces(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.kind, func(t *testing.T) {
			labels := make([]string, tc.g.N())
			for v := range labels {
				labels[v] = fmt.Sprintf("c%d", v%3)
			}
			l := labeled(tc.g, labels)
			_, _, rep, err := Gather(nil, obs.Scope{}, l, tc.r, tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.TraceLines()
			if len(got) == 0 {
				t.Fatalf("golden case %q injected no faults; pick a denser plan", tc.kind)
			}
			// A second run must reproduce the identical trace before it is
			// worth pinning.
			_, _, rep2, err := Gather(nil, obs.Scope{}, l, tc.r, tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep2.TraceLines(), got) {
				t.Fatal("trace not reproducible across runs; golden comparison is meaningless")
			}

			path := filepath.Join("testdata", "golden_"+tc.kind+".trace")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (run with -update-golden to create): %v", err)
			}
			want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
			if !reflect.DeepEqual(got, want) {
				t.Errorf("schedule for %q drifted from golden trace %s\n got %d lines:\n  %s\nwant %d lines:\n  %s",
					tc.kind, path,
					len(got), strings.Join(got, "\n  "),
					len(want), strings.Join(want, "\n  "))
			}
		})
	}
}

// TestGoldenFaultViews pins the views themselves under each golden plan
// and under the kitchen-sink chaoticPlan on the 6x6 grid, one line per
// node with its hex-encoded view key (empty at crashed nodes). The traces
// above pin only the schedule; these files pin what the schedule gathers,
// so a change to the knowledge representation or to the view building
// restricted to a node's knowledge that alters a view under drop, delay
// or a mid-run crash shows up as a diff. Run with -update-golden to
// regenerate after an intentional change.
func TestGoldenFaultViews(t *testing.T) {
	type viewCase struct {
		kind string
		g    *graph.Graph
		r    int
		plan faults.Plan
	}
	var cases []viewCase
	for _, tc := range goldenCases() {
		cases = append(cases, viewCase{tc.kind, tc.g, tc.r, tc.plan})
	}
	cases = append(cases, viewCase{"chaos", graph.Grid(6, 6), 2, chaoticPlan(1)})
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			labels := make([]string, tc.g.N())
			for v := range labels {
				labels[v] = fmt.Sprintf("c%d", v%3)
			}
			views, _, _, err := Gather(nil, obs.Scope{}, labeled(tc.g, labels), tc.r, tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for v, key := range viewKeys(views) {
				fmt.Fprintf(&got, "node=%d %x\n", v, key)
			}
			path := filepath.Join("testdata", "golden_"+tc.kind+".views")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden views (run with -update-golden to create): %v", err)
			}
			if got.String() != string(raw) {
				t.Errorf("views for %q drifted from %s\n got:\n%s\nwant:\n%s", tc.kind, path, got.String(), raw)
			}
		})
	}
}
