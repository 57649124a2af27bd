package core

import "fmt"

// Verdict is a node's outcome in a fault-injected run of the distributed
// verifier. The fault-free pipeline's boolean accept/reject gains a third
// state: a crash-stopped node issues no verdict at all.
//
// Semantics under crashes follow the paper's acceptance convention
// conservatively: "the network accepts" means every node accepts, and a
// crashed node cannot attest anything, so any crash already refutes global
// acceptance (AllAccept). The surviving nodes' verdicts remain meaningful
// individually — each is the decoder's genuine output on the (possibly
// truncated) view that node managed to assemble.
//
// The zero value is VerdictReject: absent evidence of acceptance, a node
// rejects — the same default-deny stance the decoders take on malformed
// views.
type Verdict int8

const (
	// VerdictReject: the decoder ran and rejected the node's view.
	VerdictReject Verdict = iota
	// VerdictAccept: the decoder ran and accepted the node's view.
	VerdictAccept
	// VerdictCrashed: the node crash-stopped before completing the run;
	// no decoder output exists.
	VerdictCrashed
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictReject:
		return "reject"
	case VerdictAccept:
		return "accept"
	case VerdictCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("Verdict(%d)", int8(v))
	}
}

// Accepted reports whether the verdict is an acceptance.
func (v Verdict) Accepted() bool { return v == VerdictAccept }

// AllAcceptVerdicts reports whether the run certifies the instance: every
// node ran to completion and accepted. Any crash refutes it.
func AllAcceptVerdicts(vs []Verdict) bool {
	for _, v := range vs {
		if v != VerdictAccept {
			return false
		}
	}
	return true
}

// CountVerdicts tallies a verdict slice into (accepted, rejected,
// crashed).
func CountVerdicts(vs []Verdict) (accepted, rejected, crashed int) {
	for _, v := range vs {
		switch v {
		case VerdictAccept:
			accepted++
		case VerdictCrashed:
			crashed++
		default:
			rejected++
		}
	}
	return accepted, rejected, crashed
}
