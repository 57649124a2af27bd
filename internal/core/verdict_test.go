package core

import "testing"

func TestVerdictZeroValueRejects(t *testing.T) {
	// Default-deny: the zero value of Verdict must be a rejection so that
	// forgetting to set a verdict can never widen acceptance.
	var v Verdict
	if v != VerdictReject || v.Accepted() {
		t.Errorf("zero verdict = %v, accepted=%v", v, v.Accepted())
	}
}

func TestVerdictString(t *testing.T) {
	cases := []struct {
		v    Verdict
		want string
	}{
		{VerdictAccept, "accept"},
		{VerdictReject, "reject"},
		{VerdictCrashed, "crashed"},
		{Verdict(42), "Verdict(42)"},
	}
	for _, tt := range cases {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int8(tt.v), got, tt.want)
		}
	}
}

func TestVerdictAccepted(t *testing.T) {
	if !VerdictAccept.Accepted() {
		t.Error("accept not accepted")
	}
	if VerdictReject.Accepted() || VerdictCrashed.Accepted() {
		t.Error("reject or crashed counted as accepted")
	}
}

func TestAllAcceptVerdicts(t *testing.T) {
	cases := []struct {
		name string
		vs   []Verdict
		want bool
	}{
		{"empty", nil, true},
		{"all accept", []Verdict{VerdictAccept, VerdictAccept}, true},
		{"one reject", []Verdict{VerdictAccept, VerdictReject}, false},
		{"one crash refutes", []Verdict{VerdictAccept, VerdictCrashed, VerdictAccept}, false},
	}
	for _, tt := range cases {
		if got := AllAcceptVerdicts(tt.vs); got != tt.want {
			t.Errorf("%s: AllAcceptVerdicts = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestCountVerdicts(t *testing.T) {
	vs := []Verdict{VerdictAccept, VerdictReject, VerdictAccept, VerdictCrashed, VerdictReject}
	a, r, c := CountVerdicts(vs)
	if a != 2 || r != 2 || c != 1 {
		t.Errorf("CountVerdicts = %d,%d,%d, want 2,2,1", a, r, c)
	}
}

func TestVerdictsFromBools(t *testing.T) {
	vs := VerdictsFromBools([]bool{true, false, true})
	want := []Verdict{VerdictAccept, VerdictReject, VerdictAccept}
	for i := range want {
		if vs[i] != want[i] {
			t.Errorf("index %d: %v, want %v", i, vs[i], want[i])
		}
	}
}

// VerdictsFromBools lifts fault-free boolean outputs into verdicts.
func VerdictsFromBools(outs []bool) []Verdict {
	vs := make([]Verdict, len(outs))
	for i, ok := range outs {
		if ok {
			vs[i] = VerdictAccept
		}
	}
	return vs
}
