// Package decoders implements every certification scheme constructed in the
// paper, each as a core.Scheme bundling the decoder, its constructive
// prover, the promise problem it certifies, and its certificate encoding:
//
//   - Trivial(k): the folklore revealing LCP for k-coloring with
//     ceil(log k)-bit certificates (Section 1) — the non-hiding baseline.
//   - DegreeOne: the anonymous strong and hiding scheme for graphs with
//     minimum degree 1 (Lemma 4.1), constant-size certificates.
//   - EvenCycle: the anonymous strong and hiding scheme for even cycles via
//     2-edge-coloring (Lemma 4.2), constant-size certificates; hides the
//     coloring at every node.
//   - Union: the combined scheme of Theorem 1.1 for H1 ∪ H2.
//   - Shatter: the non-anonymous scheme for graphs with a shatter point
//     (Theorem 1.3), certificates of size O(min{Δ², n} + log n).
//   - Watermelon: the non-anonymous scheme for watermelon graphs
//     (Theorem 1.4), certificates of size O(log n).
//
// Labels are encoded as human-readable strings; each scheme documents its
// binary encoding through CertBits so the experiment harness can reproduce
// the paper's certificate-size claims.
package decoders

import "math"

// bitsFor returns the number of bits needed to distinguish values 0..m-1
// (at least 1).
func bitsFor(m int) int {
	if m <= 2 {
		return 1
	}
	b := 0
	for v := m - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// bitsForValue returns the number of bits in the binary representation of
// v >= 0 (at least 1).
func bitsForValue(v int) int {
	if v <= 1 {
		return 1
	}
	b := 0
	for ; v > 0; v >>= 1 {
		b++
	}
	return b
}

// scanNat parses the decimal integer that starts at s[i] and runs to the
// first byte that is not a digit, and returns its value and the index after
// it. It accepts exactly the fields strconv.Atoi turns into a non-negative
// int: an optional sign, at least one digit, no overflow (so "-0" parses and
// "-1" does not).
func scanNat(s string, i int) (v, next int, ok bool) {
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	start := i
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		d := int(s[i] - '0')
		if v > (math.MaxInt-d)/10 {
			return 0, i, false
		}
		v = v*10 + d
	}
	return v, i, i > start && (!neg || v == 0)
}

// scanNats parses s as len(out) non-negative integers (see scanNat), the
// k-th followed by the separator byte seps[k] and the last by the end of s.
// The certificate parsers read their fields with it in place, with no
// splitting and no allocation.
func scanNats(s, seps string, out []int) bool {
	i := 0
	for k := range out {
		v, next, ok := scanNat(s, i)
		if !ok {
			return false
		}
		out[k] = v
		if k == len(out)-1 {
			return next == len(s)
		}
		if next == len(s) || s[next] != seps[k] {
			return false
		}
		i = next + 1
	}
	return true
}
