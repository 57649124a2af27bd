package graph

// This file partitions the labeling space of enumerate.go into disjoint
// shards for the parallel drivers in internal/nbhd and internal/core. The
// sharder obeys this contract, pinned by the property tests in
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
// A shard *skips* foreign subtrees of the enumeration recursion instead of
// enumerating and filtering: labelings are split by the rank of a short
// prefix.

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
