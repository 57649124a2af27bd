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
// A shard *skips* foreign subtrees of the enumeration instead of
// enumerating and filtering: labelings are split by the rank of a short
// prefix (LabelingCursor).

// EnumLabelingsShard calls fn with the labelings of EnumLabelings(n,
// alphabet) assigned to the given shard, in the order a LabelingCursor
// walks them. Like EnumLabelings, the slice passed to fn is reused across
// calls; copy it to retain.
func EnumLabelingsShard(n, alphabet, shard, shards int, fn func([]int) bool) {
	var c LabelingCursor
	c.Reset(n, alphabet, shard, shards)
	for _, ok := c.Next(); ok; _, ok = c.Next() {
		if !fn(c.Labeling()) {
			return
		}
	}
}

// LabelingCursor walks one shard of the labelings of n nodes over an
// alphabet, the one enumerator behind EnumLabelings and
// EnumLabelingsShard. The space is split on the lexicographic rank of the
// first prefixLen symbols (the shortest prefix with at least shards
// distinct values): a prefix of rank r belongs to shard r % shards, and the
// shard walks only its own prefix subtrees, each in full lexicographic
// order, as an odometer on the remaining digits. Each step reports the
// lowest digit it changed, so a caller that keeps state per digit redoes
// only the digits from there on. The zero value is an exhausted cursor.
type LabelingCursor struct {
	lab      []int
	alphabet int
	prefix   int // digits [0, prefix) select the shard; the rest run freely
	rank     int // lexicographic rank of lab[:prefix]
	stride   int // distance between the shard's prefix ranks: the shard count
	end      int // alphabet^prefix, one past the last prefix rank
	started  bool
}

// Reset points c before the first labeling of the given shard of shards
// (shards <= 1 is the whole space, whose only shard is 0), reusing c's
// labeling buffer when it is large enough. Out-of-range shard indices and
// alphabets below 1 leave c exhausted.
func (c *LabelingCursor) Reset(n, alphabet, shard, shards int) {
	if c.lab == nil || cap(c.lab) < n {
		c.lab = make([]int, n)
	} else {
		c.lab = c.lab[:n]
		clear(c.lab)
	}
	shards = max(shards, 1)
	c.alphabet, c.stride, c.started = alphabet, shards, false
	c.prefix, c.rank, c.end = 0, 0, 0
	if alphabet <= 0 || shard < 0 || shard >= shards {
		return
	}
	c.prefix = labelingPrefixLen(n, alphabet, shards)
	c.end = 1
	for range c.prefix {
		c.end *= alphabet
	}
	c.rank = shard
}

// Next moves c to the shard's next labeling and returns the lowest digit
// that differs from the previous one (0 on the first labeling); ok is false
// once the shard is exhausted.
func (c *LabelingCursor) Next() (from int, ok bool) {
	if c.rank >= c.end {
		return 0, false
	}
	if !c.started {
		c.started = true
		c.spellPrefix()
		return 0, true
	}
	lab := c.lab
	for i := len(lab) - 1; i >= c.prefix; i-- {
		if lab[i]+1 < c.alphabet {
			lab[i]++
			return i, true
		}
		lab[i] = 0
	}
	// The free digits wrapped: move on to the shard's next prefix subtree.
	c.rank += c.stride
	if c.rank >= c.end {
		return 0, false
	}
	return c.spellPrefix(), true
}

// spellPrefix writes the digits of the prefix rank into the labeling and
// returns the lowest index it changed (the prefix length if none).
func (c *LabelingCursor) spellPrefix() int {
	from := c.prefix
	r := c.rank
	for i := c.prefix - 1; i >= 0; i-- {
		if d := r % c.alphabet; c.lab[i] != d {
			c.lab[i] = d
			from = i
		}
		r /= c.alphabet
	}
	return from
}

// Labeling returns the labeling c stands at, as alphabet indices by node.
// The slice is c's own and changes on the next step; copy it to retain.
func (c *LabelingCursor) Labeling() []int { return c.lab }

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
