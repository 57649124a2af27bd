package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// hashDecoder accepts a view unless a hash of its labels, in local order,
// is divisible by 3: verdicts vary with every label in the view, so a stale
// or misranked memo entry shows up as a verdict mismatch.
func hashDecoder(rounds int) Decoder {
	return NewDecoder(rounds, true, func(mu *view.View) bool {
		h := fnv.New32a()
		for _, l := range mu.Labels {
			h.Write([]byte(l))
			h.Write([]byte{0})
		}
		return h.Sum32()%3 != 0
	})
}

// symbols returns an alphabet of n distinct labels.
func symbols(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%d", i)
	}
	return out
}

// sweepShape summarizes which verdict-table regimes a sweep exercises.
type sweepShape struct {
	dense, sparse, unranked int
	lang                    string // "dense", "map" or "none"
}

func shapeOf(s *labelSweep) sweepShape {
	var sh sweepShape
	sh.unranked = len(s.unranked)
	for v := range s.tpl {
		switch {
		case s.memo[v].sparse != nil:
			sh.sparse++
		case s.memo[v].dense != nil:
			sh.dense++
		}
	}
	switch {
	case !s.useMask:
		sh.lang = "none"
	case s.langMemo.sparse != nil:
		sh.lang = "map"
	default:
		sh.lang = "dense"
	}
	return sh
}

// TestLabelSweepMatchesCheckStrongSoundness is the memo-free differential
// test of the incremental sweep: one sweep is fed every labeling of a
// (sub)space, first in EnumLabelings order and then in a seeded shuffled
// order with repeats (non-adjacent jumps, as at shard boundaries), and each
// verdict is compared with CheckStrongSoundness on a fresh Labeled. The
// cases reach every table regime: dense rank tables, map-fallback rank
// tables (|alphabet|^|view| over the dense cap), rank-overflow nodes
// decided on every labeling, a language table over the dense cap, and an
// instance over 64 nodes with no language memo.
func TestLabelSweepMatchesCheckStrongSoundness(t *testing.T) {
	big := symbols(1 << 16)
	cases := []struct {
		name     string
		d        Decoder
		lang     Language
		inst     Instance
		alphabet []string
		// digits are the alphabet indices the labelings draw from; limit
		// caps the labelings taken in EnumLabelings order (0 = all).
		digits []int
		limit  int
		want   sweepShape
	}{
		{"dense/C5-hash", hashDecoder(1), TwoCol(), NewAnonymousInstance(graph.MustCycle(5)),
			[]string{"0", "1", "x"}, []int{0, 1, 2}, 0, sweepShape{dense: 5, lang: "dense"}},
		{"dense/P4-reveal-ids", revealDecoder(), TwoCol(), NewInstance(graph.Path(4)),
			[]string{"0", "1", "x"}, []int{0, 1, 2}, 0, sweepShape{dense: 4, lang: "dense"}},
		{"dense/P5-hash-r2", hashDecoder(2), KCol(1), NewAnonymousInstance(graph.Path(5)),
			[]string{"a", "b", "c"}, []int{0, 1, 2}, 0, sweepShape{dense: 5, lang: "dense"}},
		{"sparse/C3-2^16-symbols", hashDecoder(1), TwoCol(), NewAnonymousInstance(graph.MustCycle(3)),
			big, []int{0, 1, 40000, 65535}, 0, sweepShape{sparse: 3, lang: "dense"}},
		{"unranked/star5-2^16-symbols", hashDecoder(1), KCol(1), NewAnonymousInstance(graph.Star(5)),
			big, []int{0, 7, 65535}, 0, sweepShape{sparse: 4, unranked: 1, lang: "dense"}},
		{"lang-map/C17", hashDecoder(1), TwoCol(), NewAnonymousInstance(graph.MustCycle(17)),
			[]string{"0", "1"}, []int{0, 1}, 1500, sweepShape{dense: 17, lang: "map"}},
		{"n>64/C66", hashDecoder(1), TwoCol(), NewAnonymousInstance(graph.MustCycle(66)),
			[]string{"0", "1", "2"}, []int{0, 1, 2}, 300, sweepShape{dense: 66, lang: "none"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.inst.G.N()
			s, err := newLabelSweep(tc.d, tc.lang, tc.inst, tc.alphabet)
			if err != nil {
				t.Fatal(err)
			}
			if got := shapeOf(s); got != tc.want {
				t.Fatalf("sweep shape %+v, want %+v", got, tc.want)
			}
			// The decoder runs once per distinct (node, neighborhood
			// labeling) of a ranked node, and on every labeling at an
			// unranked one.
			seen := make(map[string]bool)
			var wantInner int64
			compare := func(idx []int) {
				t.Helper()
				for v, tpl := range s.tpl {
					key := fmt.Sprint(v, ":")
					for _, w := range tpl.Hosts() {
						key += fmt.Sprint(idx[w], ",")
					}
					if slices.Contains(s.unranked, v) || !seen[key] {
						seen[key] = true
						wantInner++
					}
				}
				labels := make([]string, n)
				rank := uint64(0)
				for v, a := range idx {
					labels[v] = tc.alphabet[a]
					rank = rank*uint64(len(tc.alphabet)) + uint64(a)
				}
				got := s.check(idx)
				if s.lrank != rank {
					t.Fatalf("labeling %v: sweep rank %d, want %d", labels, s.lrank, rank)
				}
				l := MustNewLabeled(tc.inst, labels)
				want := CheckStrongSoundness(tc.d, tc.lang, l)
				wantAcc, err := AcceptingSet(tc.d, l)
				if err != nil {
					t.Fatal(err)
				}
				if gotAcc := s.accepting(); !slices.Equal(gotAcc, wantAcc) {
					t.Fatalf("labeling %v: accepting set %v, want %v", labels, gotAcc, wantAcc)
				}
				if (got == nil) != (want == nil) {
					t.Fatalf("labeling %v: sweep err %v, CheckStrongSoundness err %v", labels, got, want)
				}
				if got == nil {
					return
				}
				var gv, wv *StrongSoundnessViolation
				if !errors.As(got, &gv) || !errors.As(want, &wv) {
					t.Fatalf("labeling %v: non-violation errors: sweep %v, reference %v", labels, got, want)
				}
				if !slices.Equal(gv.Labeled.Labels, wv.Labeled.Labels) || !slices.Equal(gv.Accepting, wv.Accepting) {
					t.Fatalf("violations differ:\nsweep:     %v\nreference: %v", gv, wv)
				}
			}

			var seq [][]int
			graph.EnumLabelings(n, len(tc.digits), func(sub []int) bool {
				idx := make([]int, n)
				for v, k := range sub {
					idx[v] = tc.digits[k]
				}
				compare(idx)
				seq = append(seq, idx)
				return tc.limit == 0 || len(seq) < tc.limit
			})
			rng := rand.New(rand.NewSource(int64(len(seq))))
			order := append(append([][]int(nil), seq...), seq[:len(seq)/2]...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, idx := range order {
				compare(idx)
			}

			checked := int64(len(seq) + len(order))
			if s.nChecked != checked || s.nDecide != int64(n)*checked {
				t.Errorf("checked %d labelings with %d decide calls, want %d and %d", s.nChecked, s.nDecide, checked, int64(n)*checked)
			}
			if s.nDecideInner != wantInner {
				t.Errorf("decoder ran %d times, want %d", s.nDecideInner, wantInner)
			}
			if s.nDecide != s.nDecideMemoHits+s.nDecideInner {
				t.Errorf("decide calls %d != memo hits %d + inner %d", s.nDecide, s.nDecideMemoHits, s.nDecideInner)
			}
			if s.nLangEvals+s.nLangMemoHits != checked {
				t.Errorf("language evals %d + memo hits %d != %d labelings", s.nLangEvals, s.nLangMemoHits, checked)
			}
		})
	}
}
