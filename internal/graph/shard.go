package graph

// This file partitions the enumeration spaces of enumerate.go into disjoint
// shards for the parallel drivers in internal/nbhd and internal/core. Every
// sharder obeys the same contract, pinned by the property tests in
// shard_test.go:
//
//   - DISJOINT COVER: the multiset union over shard = 0..shards-1 of the
//     items produced equals the sequential enumeration, with no duplicates
//     and no omissions.
//   - ORDER: each shard produces a subsequence of the sequential order, so
//     a rank-based merge of shard outputs reconstructs the sequential
//     stream deterministically.
//   - DEGENERATE SHARDS: shards <= 1 is the sequential enumeration;
//     out-of-range shard indices produce nothing.
//
// The partitions are chosen so that a shard can *skip* foreign subtrees of
// the enumeration recursion instead of enumerating and filtering: labelings
// are split by the rank of a short prefix, identifier assignments by the
// first node's identifier, and graphs by the edge-mask residue.

// EnumLabelingsShard calls fn with the labelings of EnumLabelings(n,
// alphabet) assigned to the given shard. The space is split on the
// lexicographic rank of the first prefixLen symbols (the shortest prefix
// with at least shards distinct values): a prefix of rank r belongs to
// shard r % shards, and the shard enumerates only its own prefix subtrees,
// each in full lexicographic order. Like EnumLabelings, the slice passed to
// fn is reused across calls; copy it to retain.
func EnumLabelingsShard(n, alphabet, shard, shards int, fn func([]int) bool) {
	if shards <= 1 {
		if shard == 0 {
			EnumLabelings(n, alphabet, fn)
		}
		return
	}
	if alphabet <= 0 || shard < 0 || shard >= shards {
		return
	}
	if n == 0 {
		// The empty labeling is the single point of the space.
		if shard == 0 {
			fn([]int{})
		}
		return
	}
	prefix := labelingPrefixLen(n, alphabet, shards)
	lab := make([]int, n)
	var suffix func(v int) bool
	suffix = func(v int) bool {
		if v == n {
			return fn(lab)
		}
		for a := 0; a < alphabet; a++ {
			lab[v] = a
			if !suffix(v + 1) {
				return false
			}
		}
		return true
	}
	rank := 0
	var walk func(v int) bool
	walk = func(v int) bool {
		if v == prefix {
			mine := rank%shards == shard
			rank++
			if !mine {
				return true
			}
			return suffix(prefix)
		}
		for a := 0; a < alphabet; a++ {
			lab[v] = a
			if !walk(v + 1) {
				return false
			}
		}
		return true
	}
	walk(0)
}

// labelingPrefixLen returns the shortest prefix length whose alphabet^len
// distinct values reach the shard count, capped at n.
func labelingPrefixLen(n, alphabet, shards int) int {
	values := 1
	for l := 0; l < n; l++ {
		if values >= shards {
			return l
		}
		// values < shards here, so the product stays below shards*alphabet
		// and cannot overflow for any sane shard count.
		values *= alphabet
	}
	return n
}

// EnumIDsShard calls fn with the injective identifier assignments of
// EnumIDs(n, maxID) assigned to the given shard. The space is split on the
// first node's identifier: an assignment with Id(0) = id belongs to shard
// (id-1) % shards. Shards beyond maxID produce nothing.
func EnumIDsShard(n, maxID, shard, shards int, fn func(IDs) bool) {
	if shards <= 1 {
		if shard == 0 {
			EnumIDs(n, maxID, fn)
		}
		return
	}
	if maxID < n || shard < 0 || shard >= shards {
		return
	}
	if n == 0 {
		if shard == 0 {
			fn(IDs{})
		}
		return
	}
	ids := make(IDs, n)
	used := make([]bool, maxID+1)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			return fn(ids.Clone())
		}
		for id := 1; id <= maxID; id++ {
			if used[id] {
				continue
			}
			used[id] = true
			ids[v] = id
			if !rec(v + 1) {
				return false
			}
			used[id] = false
		}
		return true
	}
	for id := 1; id <= maxID; id++ {
		if (id-1)%shards != shard {
			continue
		}
		used[id] = true
		ids[0] = id
		if !rec(1) {
			return
		}
		used[id] = false
	}
}

// EnumGraphsShard calls fn with the graphs of EnumGraphs(n) assigned to the
// given shard: the graph with edge mask m belongs to shard m % shards, so a
// shard strides through the mask space directly. Like EnumGraphs, the Graph
// passed to fn is reused across calls; Clone it to retain.
func EnumGraphsShard(n, shard, shards int, fn func(*Graph) bool) {
	if shards <= 1 {
		if shard == 0 {
			EnumGraphs(n, fn)
		}
		return
	}
	if shard < 0 || shard >= shards {
		return
	}
	pairs := allPairs(n)
	total := 1 << len(pairs)
	deg := make([]int, n)
	g := New(n)
	backing := make([]int, n*max(n-1, 0))
	for mask := shard; mask < total; mask += shards {
		// Same reused-Graph construction as EnumGraphs; see there.
		for v := range deg {
			deg[v] = 0
		}
		for i, e := range pairs {
			if mask&(1<<i) != 0 {
				deg[e[0]]++
				deg[e[1]]++
			}
		}
		off := 0
		for v := 0; v < n; v++ {
			if deg[v] > 0 {
				g.adj[v] = backing[off : off : off+deg[v]]
				off += deg[v]
			} else {
				g.adj[v] = nil
			}
		}
		for i, e := range pairs {
			if mask&(1<<i) != 0 {
				g.adj[e[0]] = append(g.adj[e[0]], e[1])
				g.adj[e[1]] = append(g.adj[e[1]], e[0])
			}
		}
		if !fn(g) {
			return
		}
	}
}

// LabelingRankFits reports whether alphabet^n fits a uint64 rank without
// overflow, i.e. whether the lexicographic rank of every n-node labeling
// (its EnumLabelings position) is exact in a uint64.
func LabelingRankFits(n, alphabet int) bool {
	if alphabet <= 1 {
		return true
	}
	const limit = uint64(1) << 62
	v := uint64(1)
	for i := 0; i < n; i++ {
		if v > limit/uint64(alphabet) {
			return false
		}
		v *= uint64(alphabet)
	}
	return true
}
