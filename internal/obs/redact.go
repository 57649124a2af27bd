package obs

import (
	"fmt"
	"hash/fnv"
)

// Redaction is the only sanctioned way certificate-derived bytes cross into
// the observability layer. The hiding property (Section 2.4 of the paper)
// promises that certificates reveal nothing about the witness coloring
// beyond its existence, so raw label bytes must never reach metrics, span
// attributes, progress lines, run manifests, or log output — all of
// which outlive the run and are routinely uploaded as CI artifacts. The
// certflow analyzer (internal/analysis) enforces this statically: a value
// tainted by certificate sources may reach an obs sink only through the
// Redact* functions below (or a length), which keep the observable residue
// to sizes and one-way digests.

// RedactString reduces s to its length and a 32-bit FNV-1a digest —
// enough to correlate two occurrences of the same value across a trace,
// nothing to reconstruct the bytes from.
func RedactString(s string) string {
	h := fnv.New32a()
	h.Write([]byte(s))
	return fmt.Sprintf("len=%d,fnv32a=%08x", len(s), h.Sum32())
}

// RedactBytes is RedactString for byte slices (canonical binary keys).
func RedactBytes(b []byte) string {
	h := fnv.New32a()
	h.Write(b)
	return fmt.Sprintf("len=%d,fnv32a=%08x", len(b), h.Sum32())
}

// RedactStrings reduces a labeling (one certificate per node) to its
// cardinality, total byte count, and a digest over the length-prefixed
// concatenation, so equal labelings redact equal and permuted ones do not.
func RedactStrings(ss []string) string {
	h := fnv.New32a()
	var lenBuf [10]byte
	total := 0
	for _, s := range ss {
		total += len(s)
		n := putUvarint(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:n])
		h.Write([]byte(s))
	}
	return fmt.Sprintf("n=%d,bytes=%d,fnv32a=%08x", len(ss), total, h.Sum32())
}

// putUvarint is encoding/binary.PutUvarint, inlined to keep the redactors'
// import set minimal.
func putUvarint(buf []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		buf[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	buf[i] = byte(x)
	return i + 1
}
