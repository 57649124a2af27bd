// Package sim runs the distributed verifier as an actual synchronous
// message-passing computation (the LOCAL model of Section 2.2): r rounds
// of flooding, each a send pass in which every node hands its knowledge to
// its neighbors' inboxes and a receive pass in which every node merges what
// arrived: the sorted sets of host nodes whose records (ID, label, ports)
// it holds. After r rounds every node has gathered exactly its radius-r
// view — including the frontier-edge truncation: an edge between two
// distance-r nodes needs min distance r to either endpoint and therefore
// never arrives within r rounds.
//
// The package has two entry points, both taking the caller's context and
// observability scope: Gather gathers every node's view, and
// RunSchemeFaultsCtx certifies an instance and evaluates the decoder at
// every node. Both drive one scheduler under a seeded faults.Plan — message
// drop, duplication, delay, and reordering, crash-stop node failures, and
// adversarial certificate corruption — with bit-identical replays per
// (seed, plan) and graceful degradation into per-node verdicts plus a
// structured FaultReport. The zero-value plan is the fault-free run, which
// the tests check against the centralized view.Extract and against a
// reference gather that merges neighbor snapshots directly.
package sim

// Stats reports the communication volume of one gather.
type Stats struct {
	Rounds int
	// Messages is the total number of point-to-point messages actually
	// handed to a link (dropped messages are not counted; duplicated and
	// delayed copies are counted when delivered to the link).
	Messages int
	// Records is the total number of host nodes carried by all messages
	// (a proxy for bandwidth).
	Records int
}

// knowledge is the sorted set of host nodes whose records a node holds.
// Records come only from the initial knowledge of the nodes heard of (a
// node and its incident edges), and payloads merge whole, so the known
// edges are exactly those incident to a known node. A value is never
// written once built.
type knowledge []int32

// merge returns the sorted union of k and other. A union that adds
// nothing returns k itself; otherwise the union is written over dst, which
// must alias neither k nor other.
func (k knowledge) merge(other, dst knowledge) knowledge {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(k) && j < len(other) {
		x, y := k[i], other[j]
		dst = append(dst, min(x, y))
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	dst = append(dst, k[i:]...)
	dst = append(dst, other[j:]...)
	if len(dst) == len(k) {
		return k
	}
	return dst
}
