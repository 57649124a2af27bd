package graph

import (
	"fmt"
	"reflect"
	"testing"
)

var shardCounts = []int{1, 2, 3, 7, 16}

// checkPartition verifies the sharding contract shared by every sharder:
// the concatenation of shard outputs is a permutation of the sequential
// enumeration, each shard is a subsequence of the sequential order, and
// shards are pairwise disjoint. Items are compared by their fingerprint,
// which must be unique across the space.
func checkPartition(t *testing.T, k int, sequential []string, shardsOut [][]string) {
	t.Helper()
	rank := make(map[string]int, len(sequential))
	for i, fp := range sequential {
		if _, dup := rank[fp]; dup {
			t.Fatalf("sequential enumeration repeats %q; fingerprints must be unique", fp)
		}
		rank[fp] = i
	}
	seen := make(map[string]int)
	total := 0
	for s, out := range shardsOut {
		last := -1
		for _, fp := range out {
			r, ok := rank[fp]
			if !ok {
				t.Fatalf("k=%d shard %d produced %q, absent from the sequential enumeration", k, s, fp)
			}
			if r <= last {
				t.Fatalf("k=%d shard %d violates sequential order at %q (rank %d after %d)", k, s, fp, r, last)
			}
			last = r
			if prev, dup := seen[fp]; dup {
				t.Fatalf("k=%d: %q produced by both shard %d and shard %d", k, fp, prev, s)
			}
			seen[fp] = s
			total++
		}
	}
	if total != len(sequential) {
		t.Fatalf("k=%d: shards produced %d items, sequential enumeration has %d", k, total, len(sequential))
	}
}

func TestEnumLabelingsShardPartition(t *testing.T) {
	cases := []struct{ n, alphabet int }{
		{0, 2}, {1, 2}, {3, 2}, {4, 3}, {5, 2}, {3, 4}, {2, 17},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n%d_a%d", c.n, c.alphabet), func(t *testing.T) {
			var sequential []string
			EnumLabelings(c.n, c.alphabet, func(idx []int) bool {
				sequential = append(sequential, fmt.Sprint(idx))
				return true
			})
			for _, k := range shardCounts {
				shardsOut := make([][]string, k)
				for s := 0; s < k; s++ {
					EnumLabelingsShard(c.n, c.alphabet, s, k, func(idx []int) bool {
						shardsOut[s] = append(shardsOut[s], fmt.Sprint(idx))
						return true
					})
				}
				checkPartition(t, k, sequential, shardsOut)
			}
		})
	}
}

func TestEnumIDsShardPartition(t *testing.T) {
	cases := []struct{ n, maxID int }{
		{0, 3}, {1, 1}, {2, 4}, {3, 4}, {3, 5}, {4, 4},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n%d_max%d", c.n, c.maxID), func(t *testing.T) {
			var sequential []string
			EnumIDs(c.n, c.maxID, func(ids IDs) bool {
				sequential = append(sequential, fmt.Sprint(ids))
				return true
			})
			for _, k := range shardCounts {
				shardsOut := make([][]string, k)
				for s := 0; s < k; s++ {
					EnumIDsShard(c.n, c.maxID, s, k, func(ids IDs) bool {
						shardsOut[s] = append(shardsOut[s], fmt.Sprint(ids))
						return true
					})
				}
				checkPartition(t, k, sequential, shardsOut)
			}
		})
	}
}

func TestEnumGraphsShardPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			var sequential []string
			EnumGraphs(n, func(g *Graph) bool {
				sequential = append(sequential, g.String())
				return true
			})
			for _, k := range shardCounts {
				shardsOut := make([][]string, k)
				for s := 0; s < k; s++ {
					EnumGraphsShard(n, s, k, func(g *Graph) bool {
						shardsOut[s] = append(shardsOut[s], g.String())
						return true
					})
				}
				checkPartition(t, k, sequential, shardsOut)
			}
		})
	}
}

func TestEnumShardEarlyStop(t *testing.T) {
	// Returning false must stop the shard immediately, like the sequential
	// enumerators.
	count := 0
	EnumLabelingsShard(4, 3, 1, 3, func([]int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("labeling shard yielded %d after stop, want 5", count)
	}
	count = 0
	EnumIDsShard(3, 4, 0, 2, func(IDs) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("ID shard yielded %d after stop, want 1", count)
	}
	count = 0
	EnumGraphsShard(4, 2, 3, func(*Graph) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("graph shard yielded %d after stop, want 1", count)
	}
}

func TestEnumShardDegenerate(t *testing.T) {
	// shards <= 1 is the sequential enumeration; out-of-range shard indices
	// produce nothing.
	var a, b []string
	EnumLabelings(3, 2, func(idx []int) bool { a = append(a, fmt.Sprint(idx)); return true })
	EnumLabelingsShard(3, 2, 0, 1, func(idx []int) bool { b = append(b, fmt.Sprint(idx)); return true })
	if !reflect.DeepEqual(a, b) {
		t.Error("shards=1 differs from sequential enumeration")
	}
	for _, bad := range []int{-1, 5} {
		EnumLabelingsShard(3, 2, bad, 5, func([]int) bool { t.Errorf("shard %d of 5 yielded", bad); return false })
		EnumIDsShard(2, 3, bad, 5, func(IDs) bool { t.Errorf("ID shard %d of 5 yielded", bad); return false })
		EnumGraphsShard(3, bad, 5, func(*Graph) bool { t.Errorf("graph shard %d of 5 yielded", bad); return false })
	}
	// shard index other than 0 with shards <= 1 also produces nothing.
	EnumLabelingsShard(3, 2, 1, 1, func([]int) bool { t.Error("shard 1 of 1 yielded"); return false })
}

// labelingRank returns the lexicographic rank of a labeling over the given
// alphabet size — the position EnumLabelings produces it at. The caller
// must ensure the space fits in a uint64 (see LabelingRankFits).
func labelingRank(idx []int, alphabet int) uint64 {
	var r uint64
	for _, a := range idx {
		r = r*uint64(alphabet) + uint64(a)
	}
	return r
}

func TestLabelingRank(t *testing.T) {
	// Rank must equal the position in the sequential enumeration.
	for _, c := range []struct{ n, alphabet int }{{3, 2}, {4, 3}, {2, 17}} {
		pos := uint64(0)
		EnumLabelings(c.n, c.alphabet, func(idx []int) bool {
			if r := labelingRank(idx, c.alphabet); r != pos {
				t.Fatalf("n=%d a=%d: rank(%v) = %d, want %d", c.n, c.alphabet, idx, r, pos)
			}
			pos++
			return true
		})
	}
}

func TestLabelingRankFits(t *testing.T) {
	cases := []struct {
		n, alphabet int
		want        bool
	}{
		{5, 4, true},
		{10, 17, true},
		{62, 2, true},
		{63, 2, false},
		{16, 17, false},
		{100, 1, true},
		{1000, 0, true},
	}
	for _, c := range cases {
		if got := LabelingRankFits(c.n, c.alphabet); got != c.want {
			t.Errorf("LabelingRankFits(%d, %d) = %v, want %v", c.n, c.alphabet, got, c.want)
		}
	}
}

// TestLabelingCursor pins the cursor against a reference built from ranks
// alone: shard s of k visits, in rank order, exactly the labelings whose
// prefix (the first labelingPrefixLen digits) has rank ≡ s mod k, which
// is the subsequence of EnumLabelings that shard owns; out-of-range shards
// visit nothing. Every step's reported digit is the first index at which
// the labeling differs from the one before it (0 on a shard's first). One
// cursor is reused across every case, so Reset must clear what a larger
// or unfinished walk left behind.
func TestLabelingCursor(t *testing.T) {
	var c LabelingCursor
	if _, ok := c.Next(); ok {
		t.Fatal("zero cursor yielded a labeling")
	}
	for n := 0; n <= 6; n++ {
		for alphabet := 1; alphabet <= 4; alphabet++ {
			total := 1
			for range n {
				total *= alphabet
			}
			for shards := 1; shards <= 9; shards++ {
				prefix := labelingPrefixLen(n, alphabet, shards)
				suffixSpace := 1
				for range n - prefix {
					suffixSpace *= alphabet
				}
				for shard := -1; shard <= shards+1; shard++ {
					var want [][]int
					for r := 0; r < total; r++ {
						if shard < 0 || shard >= shards || (r/suffixSpace)%shards != shard {
							continue
						}
						lab := make([]int, n)
						for i, v := n-1, r; i >= 0; i-- {
							lab[i], v = v%alphabet, v/alphabet
						}
						want = append(want, lab)
					}
					c.Reset(n, alphabet, shard, shards)
					var prev []int
					got := 0
					for from, ok := c.Next(); ok; from, ok = c.Next() {
						lab := c.Labeling()
						if got >= len(want) || !reflect.DeepEqual(lab, want[got]) {
							t.Fatalf("n=%d a=%d shard %d/%d: step %d is %v, want the reference's %d labelings %v", n, alphabet, shard, shards, got, lab, len(want), want)
						}
						wantFrom := 0
						if prev != nil {
							for wantFrom < n && lab[wantFrom] == prev[wantFrom] {
								wantFrom++
							}
						}
						if from != wantFrom {
							t.Fatalf("n=%d a=%d shard %d/%d: step %v after %v reports digit %d, want %d", n, alphabet, shard, shards, lab, prev, from, wantFrom)
						}
						prev = append(prev[:0], lab...)
						got++
					}
					if got != len(want) {
						t.Fatalf("n=%d a=%d shard %d/%d: %d labelings, want %d", n, alphabet, shard, shards, got, len(want))
					}
					if _, ok := c.Next(); ok {
						t.Fatalf("n=%d a=%d shard %d/%d: exhausted cursor yielded again", n, alphabet, shard, shards)
					}
				}
			}
		}
	}
	// A walk cut short and reset onto a smaller space starts clean.
	c.Reset(5, 3, 1, 4)
	for range 7 {
		c.Next()
	}
	c.Reset(2, 2, 0, 1)
	var seq []string
	for _, ok := c.Next(); ok; _, ok = c.Next() {
		seq = append(seq, fmt.Sprint(c.Labeling()))
	}
	if want := []string{"[0 0]", "[0 1]", "[1 0]", "[1 1]"}; !reflect.DeepEqual(seq, want) {
		t.Errorf("reset cursor walked %v, want %v", seq, want)
	}
}
