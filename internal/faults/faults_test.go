package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestZeroPlanInactive(t *testing.T) {
	var p Plan
	if p.Active() {
		t.Error("zero plan reports active")
	}
	if err := p.Validate(10); err != nil {
		t.Errorf("zero plan invalid: %v", err)
	}
	// Seed alone never activates faults: it only keys decisions.
	p.Seed = 12345
	if p.Active() {
		t.Error("seed-only plan reports active")
	}
	in := NewInjector(p)
	for round := 0; round < 5; round++ {
		arrivals, copies, dropped := in.Deliveries(round, 0, 1)
		if dropped || copies != 1 || arrivals[0] != round {
			t.Fatalf("inactive plan injected a fault at round %d: %v dropped=%v", round, arrivals[:copies], dropped)
		}
	}
}

func TestPlanActive(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
	}{
		{"drop", Plan{Drop: 0.1}},
		{"dup", Plan{Duplicate: 0.1}},
		{"delay", Plan{Delay: 0.1}},
		{"reorder", Plan{Reorder: true}},
		{"crash", Plan{Crashes: map[int]int{0: 0}}},
		{"corrupt nodes", Plan{CorruptNodes: []int{1}}},
		{"corrupt labels", Plan{CorruptLabels: map[int]string{1: "x"}}},
	}
	for _, tt := range cases {
		if !tt.p.Active() {
			t.Errorf("%s plan reports inactive", tt.name)
		}
	}
}

func TestPlanValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
	}{
		{"drop above 1", Plan{Drop: 1.5}},
		{"negative dup", Plan{Duplicate: -0.1}},
		{"delay above 1", Plan{Delay: 2}},
		{"NaN drop", Plan{Drop: math.NaN()}},
		{"negative max delay", Plan{MaxDelay: -1}},
		{"crash node out of range", Plan{Crashes: map[int]int{9: 0}}},
		{"negative crash node", Plan{Crashes: map[int]int{-1: 0}}},
		{"negative crash round", Plan{Crashes: map[int]int{0: -1}}},
		{"corrupt node out of range", Plan{CorruptNodes: []int{5}}},
		{"corrupt label node out of range", Plan{CorruptLabels: map[int]string{7: "x"}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(5); err == nil {
				t.Errorf("Validate accepted %+v", tt.p)
			}
		})
	}
}

// TestInjectorDeterministic is the package's central contract: every
// decision is a pure function of (seed, coordinates).
func TestInjectorDeterministic(t *testing.T) {
	p := Plan{Seed: 42, Drop: 0.3, Duplicate: 0.2, Delay: 0.4, MaxDelay: 3, Reorder: true}
	a, b := NewInjector(p), NewInjector(p)
	for round := 0; round < 4; round++ {
		for src := 0; src < 6; src++ {
			for dst := 0; dst < 6; dst++ {
				av, ac, ad := a.Deliveries(round, src, dst)
				bv, bc, bd := b.Deliveries(round, src, dst)
				if ad != bd || ac != bc || av != bv {
					t.Fatalf("divergent deliveries at (%d,%d,%d)", round, src, dst)
				}
			}
		}
		order := []int{3, 1, 4, 1, 5, 9}
		if !reflect.DeepEqual(a.PermuteNeighbors(nil, round, 2, order), b.PermuteNeighbors(nil, round, 2, order)) {
			t.Fatalf("divergent permutation at round %d", round)
		}
	}
}

func TestInjectorSeedSensitivity(t *testing.T) {
	p1 := Plan{Seed: 1, Drop: 0.5}
	p2 := Plan{Seed: 2, Drop: 0.5}
	a, b := NewInjector(p1), NewInjector(p2)
	same := true
	for round := 0; round < 8 && same; round++ {
		for src := 0; src < 8 && same; src++ {
			_, _, ad := a.Deliveries(round, src, src+1)
			_, _, bd := b.Deliveries(round, src, src+1)
			if ad != bd {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical drop schedules over 64 decisions")
	}
}

func TestDeliveriesProbabilityExtremes(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, Drop: 1})
	for round := 0; round < 10; round++ {
		if _, copies, dropped := in.Deliveries(round, 0, 1); !dropped || copies != 0 {
			t.Fatal("drop=1 delivered a message")
		}
	}
	in = NewInjector(Plan{Seed: 7, Duplicate: 1, Delay: 0})
	for round := 0; round < 10; round++ {
		arrivals, copies, dropped := in.Deliveries(round, 0, 1)
		if dropped || copies != 2 {
			t.Fatalf("dup=1 produced %v", arrivals[:copies])
		}
		for _, a := range arrivals[:copies] {
			if a != round {
				t.Fatalf("undelayed copy arrives at %d, sent at %d", a, round)
			}
		}
	}
	in = NewInjector(Plan{Seed: 7, Delay: 1, MaxDelay: 3})
	for round := 0; round < 10; round++ {
		arrivals, copies, _ := in.Deliveries(round, 0, 1)
		for _, a := range arrivals[:copies] {
			if a <= round || a > round+3 {
				t.Fatalf("delay=1 max=3 arrival %d for send round %d", a, round)
			}
		}
	}
}

func TestPermuteNeighborsIsPermutation(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, Reorder: true})
	order := []int{10, 20, 30, 40, 50}
	saved := append([]int(nil), order...)
	dst := make([]int, 0, len(order))
	got := in.PermuteNeighbors(dst, 1, 4, order)
	if !reflect.DeepEqual(order, saved) {
		t.Error("PermuteNeighbors modified its input")
	}
	if &got[0] != &dst[:1][0] {
		t.Error("PermuteNeighbors did not write into the caller's buffer")
	}
	seen := map[int]bool{}
	for _, x := range got {
		seen[x] = true
	}
	if len(got) != len(order) || len(seen) != len(order) {
		t.Errorf("not a permutation: %v", got)
	}
	// Without reordering, the input is returned unchanged.
	in = NewInjector(Plan{Seed: 3})
	if out := in.PermuteNeighbors(nil, 1, 4, order); !reflect.DeepEqual(out, order) {
		t.Errorf("reorder off but order changed: %v", out)
	}
}

// TestInjectorAllocs pins the scheduler's per-message and per-receiver
// questions at zero allocations: Deliveries answers by value, and
// PermuteNeighbors writes into the caller's buffer.
func TestInjectorAllocs(t *testing.T) {
	for _, p := range []Plan{{}, {Seed: 7, Drop: 0.3, Duplicate: 0.5, Delay: 0.5, MaxDelay: 3}} {
		in := NewInjector(p)
		if n := testing.AllocsPerRun(100, func() {
			for round := 0; round < 4; round++ {
				in.Deliveries(round, 1, 2)
			}
		}); n != 0 {
			t.Errorf("plan %s: Deliveries allocates %.0f objects per 4 calls", p, n)
		}
	}
	in := NewInjector(Plan{Seed: 3, Reorder: true})
	order := []int{10, 20, 30, 40, 50}
	dst := make([]int, 0, len(order))
	if n := testing.AllocsPerRun(100, func() {
		dst = in.PermuteNeighbors(dst, 1, 4, order)
	}); n != 0 {
		t.Errorf("PermuteNeighbors allocates %.0f objects per call into a large enough buffer", n)
	}
}

func TestCorruptLabel(t *testing.T) {
	in := NewInjector(Plan{Seed: 11, CorruptNodes: []int{0, 1}})
	for node := 0; node < 2; node++ {
		for _, label := range []string{"", "a", "0110", "long certificate body"} {
			got := in.CorruptLabel(node, label)
			if got == label {
				t.Errorf("node %d label %q not changed", node, label)
			}
			if again := in.CorruptLabel(node, label); again != got {
				t.Errorf("corruption not deterministic for node %d", node)
			}
		}
	}
	// Explicit replacements win.
	in = NewInjector(Plan{Seed: 11, CorruptLabels: map[int]string{3: "evil"}})
	if got := in.CorruptLabel(3, "good"); got != "evil" {
		t.Errorf("explicit replacement ignored: %q", got)
	}
}

func TestCorruptTargets(t *testing.T) {
	p := Plan{CorruptNodes: []int{5, 1, 5}, CorruptLabels: map[int]string{3: "x", 1: "y"}}
	if got := p.CorruptTargets(); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Errorf("CorruptTargets = %v, want [1 3 5]", got)
	}
}

func TestPlanStringRedacted(t *testing.T) {
	p := Plan{
		Seed:          9,
		Drop:          0.25,
		Crashes:       map[int]int{4: 1, 2: 0},
		CorruptLabels: map[int]string{1: "SECRETCERT"},
	}
	s := p.String()
	if strings.Contains(s, "SECRETCERT") {
		t.Fatalf("Plan.String leaks certificate bytes: %s", s)
	}
	for _, want := range []string{"seed=9", "drop=0.25", "crash=2@0+4@1", "corrupt=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("Plan.String = %q missing %q", s, want)
		}
	}
	if got := (Plan{}).String(); got != "fault-free (seed=0)" {
		t.Errorf("zero plan String = %q", got)
	}
}

func TestCrashRound(t *testing.T) {
	p := Plan{Crashes: map[int]int{2: 1}}
	if r, ok := p.CrashRound(2); !ok || r != 1 {
		t.Errorf("CrashRound(2) = %d,%v", r, ok)
	}
	if _, ok := p.CrashRound(0); ok {
		t.Error("CrashRound(0) reported a crash")
	}
}
