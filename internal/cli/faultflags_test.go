package cli

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hidinglcp/internal/faults"
)

func TestFaultFlagsZeroValue(t *testing.T) {
	var f FaultFlags
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Active() {
		t.Errorf("zero flags parse to an active plan: %+v", plan)
	}
	// Seed alone keys decisions without activating faults.
	f.Seed = 7
	plan, err = f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || plan.Active() {
		t.Errorf("seed-only plan: %+v", plan)
	}
}

func TestFaultFlagsFullSpec(t *testing.T) {
	f := FaultFlags{
		Spec: "drop=0.2, dup=0.1, delay=0.3:2, reorder, corrupt=1+4, trace",
		Seed: 42,
	}
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Active() {
		t.Error("spec flags parse to an inactive plan")
	}
	want := faults.Plan{
		Seed:         42,
		Drop:         0.2,
		Duplicate:    0.1,
		Delay:        0.3,
		MaxDelay:     2,
		Reorder:      true,
		CorruptNodes: []int{1, 4},
		Trace:        true,
	}
	if !reflect.DeepEqual(plan, want) {
		t.Errorf("Plan =\n%+v, want\n%+v", plan, want)
	}
}

func TestFaultFlagsDelayWithoutBound(t *testing.T) {
	f := FaultFlags{Spec: "delay=0.5"}
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delay != 0.5 || plan.MaxDelay != 0 {
		t.Errorf("Plan = %+v", plan)
	}
}

func TestFaultFlagsCrashSpec(t *testing.T) {
	f := FaultFlags{Crash: "3@0, 5@2, 7"}
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Active() {
		t.Error("crash flags parse to an inactive plan")
	}
	want := map[int]int{3: 0, 5: 2, 7: 0}
	if !reflect.DeepEqual(plan.Crashes, want) {
		t.Errorf("Crashes = %v, want %v", plan.Crashes, want)
	}
}

func TestFaultFlagsParseErrors(t *testing.T) {
	cases := []struct {
		name string
		f    FaultFlags
	}{
		{"unknown fault", FaultFlags{Spec: "fizzle=0.5"}},
		{"drop without value", FaultFlags{Spec: "drop"}},
		{"bad probability", FaultFlags{Spec: "drop=lots"}},
		{"bad delay bound", FaultFlags{Spec: "delay=0.2:zero"}},
		{"negative delay bound", FaultFlags{Spec: "delay=0.2:-1"}},
		{"reorder with value", FaultFlags{Spec: "reorder=yes"}},
		{"corrupt without nodes", FaultFlags{Spec: "corrupt"}},
		{"corrupt bad node", FaultFlags{Spec: "corrupt=x"}},
		{"retry bad count", FaultFlags{Spec: "retry=many"}},
		{"retired retry knob", FaultFlags{Spec: "retry=5"}},
		{"crash bad node", FaultFlags{Crash: "x@0"}},
		{"crash bad round", FaultFlags{Crash: "3@x"}},
		{"crash duplicate node", FaultFlags{Crash: "3@0,3@1"}},
		{"crash empty", FaultFlags{Crash: " , "}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.f.Plan(); err == nil {
				t.Errorf("Plan accepted %+v", tt.f)
			}
		})
	}
}

// TestFaultFlagsPlanValidates: out-of-range probabilities parse fine but
// fail plan validation downstream — the flag layer does not duplicate the
// plan's own range checks.
func TestFaultFlagsPlanValidates(t *testing.T) {
	f := FaultFlags{Spec: "drop=1.5"}
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(10); err == nil {
		t.Error("out-of-range probability survived validation")
	}
}

// faultKeys are the field names parseFaultSpec knows.
var faultKeys = map[string]bool{
	"drop": true, "dup": true, "delay": true, "reorder": true,
	"corrupt": true, "trace": true,
}

// FuzzParseFaultSpec feeds arbitrary -faults values to the parser. It must
// never panic; a field with an unknown name must be an error; and a spec
// that parses and passes Plan.Validate — the gate every command applies
// before running (the flag layer leaves range checks to it) — must carry
// probabilities in [0,1] and non-negative bounds.
func FuzzParseFaultSpec(f *testing.F) {
	for _, s := range []string{
		"", "drop=0.2, dup=0.1, delay=0.3:2, reorder, corrupt=1+4, trace",
		"delay=0.5", "drop=1.5", "drop=NaN", "dup=-0", "delay=1e-300:1",
		"corrupt=", "retry=-1", ",,reorder,,", "fizzle=1", "drop=0x1p-2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		var plan faults.Plan
		if err := parseFaultSpec(spec, &plan); err != nil {
			return
		}
		for _, field := range strings.Split(spec, ",") {
			field = strings.TrimSpace(field)
			if key, _, _ := strings.Cut(field, "="); field != "" && !faultKeys[key] {
				t.Fatalf("spec %q parsed despite unknown field %q", spec, field)
			}
		}
		if plan.Validate(math.MaxInt32) != nil {
			return
		}
		for _, p := range []float64{plan.Drop, plan.Duplicate, plan.Delay} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("spec %q accepted with probability %v outside [0,1]: %+v", spec, p, plan)
			}
		}
		if plan.MaxDelay < 0 {
			t.Fatalf("spec %q accepted with a negative bound: %+v", spec, plan)
		}
	})
}

// FuzzParseCrashSpec feeds arbitrary -crash values to the parser. It must
// never panic; an accepted schedule is non-empty with one entry per
// non-empty field; and one that also passes Plan.Validate has only
// non-negative crash nodes and rounds.
func FuzzParseCrashSpec(f *testing.F) {
	for _, s := range []string{
		"3@0, 5@2, 7", "", " , ", "3@0,3@1", "x@0", "3@x", "3@-1", "-2", "4@", "@4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		crashes, err := parseCrashSpec(spec)
		if err != nil {
			return
		}
		fields := 0
		for _, field := range strings.Split(spec, ",") {
			if strings.TrimSpace(field) != "" {
				fields++
			}
		}
		if len(crashes) == 0 || len(crashes) != fields {
			t.Fatalf("spec %q parsed to %d crashes from %d fields", spec, len(crashes), fields)
		}
		if (faults.Plan{Crashes: crashes}).Validate(math.MaxInt32) != nil {
			return
		}
		for v, r := range crashes {
			if v < 0 || r < 0 {
				t.Fatalf("spec %q accepted with crash %d@%d", spec, v, r)
			}
		}
	})
}
