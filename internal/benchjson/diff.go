package benchjson

import (
	"fmt"

	"hidinglcp/internal/regress"
)

// Diff compares cur against the old baseline under the thresholds. Each
// benchmark's ns/op, B/op and allocs/op become samples named
// "<Benchmark> <unit>"; a zero value is an unreported metric (B/op and
// allocs/op without -benchmem) and yields no sample.
func Diff(old, cur *Snapshot, th regress.Thresholds) (*regress.Report, error) {
	rep, err := regress.Compare(samples(old), samples(cur), th)
	if err != nil {
		return nil, err
	}
	rep.Title = fmt.Sprintf("Benchmark regression report: %s -> %s", old.Date, cur.Date)
	return rep, nil
}

func samples(s *Snapshot) []regress.Sample {
	var out []regress.Sample
	for _, b := range s.Benchmarks {
		for _, m := range []regress.Sample{
			{Unit: "ns/op", Value: b.NsPerOp},
			{Unit: "B/op", Value: b.BytesPerOp},
			{Unit: "allocs/op", Value: b.AllocsPerOp},
		} {
			if m.Value != 0 {
				m.Name = b.Name + " " + m.Unit
				out = append(out, m)
			}
		}
	}
	return out
}
