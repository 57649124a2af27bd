package graph

import "fmt"

// IDs is an identifier assignment: an injective map from nodes to positive
// identifiers in [1, N] for some N = poly(n), per Section 2.2. IDs[v] is the
// identifier of node v.
type IDs []int

// SequentialIDs assigns identifier v+1 to node v.
func SequentialIDs(n int) IDs {
	ids := make(IDs, n)
	for v := range ids {
		ids[v] = v + 1
	}
	return ids
}

// Validate checks that ids is injective, covers exactly n nodes, and uses
// identifiers in [1, maxID]. Pass maxID <= 0 to skip the range check.
func (ids IDs) Validate(n, maxID int) error {
	if len(ids) != n {
		return fmt.Errorf("identifier assignment covers %d nodes, want %d", len(ids), n)
	}
	seen := make(map[int]int, n)
	for v, id := range ids {
		if id < 1 {
			return fmt.Errorf("node %d has non-positive identifier %d", v, id)
		}
		if maxID > 0 && id > maxID {
			return fmt.Errorf("node %d has identifier %d > max %d", v, id, maxID)
		}
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("identifier %d assigned to both node %d and node %d", id, prev, v)
		}
		seen[id] = v
	}
	return nil
}

// Max returns the largest identifier in use, or 0 for an empty assignment.
func (ids IDs) Max() int {
	max := 0
	for _, id := range ids {
		if id > max {
			max = id
		}
	}
	return max
}

// Clone returns a copy of ids.
func (ids IDs) Clone() IDs {
	return append(IDs(nil), ids...)
}

// SameOrder reports whether ids and other induce the same relative order on
// nodes: ids[u] < ids[v] iff other[u] < other[v] for all u, v. This is the
// equivalence under which order-invariant decoders must not change output
// (Section 2.2).
func (ids IDs) SameOrder(other IDs) bool {
	if len(ids) != len(other) {
		return false
	}
	for u := range ids {
		for v := range ids {
			if (ids[u] < ids[v]) != (other[u] < other[v]) {
				return false
			}
		}
	}
	return true
}
