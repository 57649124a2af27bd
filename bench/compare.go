package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// bounds is the part of BENCHMARK.json that compare reads.
type bounds struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain prints, for every workload and end-to-end metric, each
// result set's median and quartiles, the change of the median, and a
// verdict against the metric's bound in BENCHMARK.json. It exits 1 when a
// metric regressed or is missing from the second set.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare <result dir A> <result dir B>")
		return 2
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v (run from the repository root)\n", err)
		return 2
	}
	var bs bounds
	if err := json.Unmarshal(data, &bs); err != nil {
		fmt.Fprintf(stderr, "bench: BENCHMARK.json: %v\n", err)
		return 2
	}
	a, err := loadValues(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadValues(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	workloads := make([]string, 0, len(a))
	for w := range a {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)

	code := 0
	fmt.Fprintf(stdout, "%-13s %-17s %-34s %-34s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
	for _, w := range workloads {
		for _, m := range bs.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 {
				continue
			}
			if len(vb) == 0 {
				fmt.Fprintf(stdout, "%-13s %-17s missing from %s\n", w, m.Name, args[1])
				code = 1
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			v := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-13s %-17s %-34s %-34s %+7.1f%%  %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", qa[1], qa[0], qa[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", qb[1], qb[0], qb[2]),
				100*(qb[1]-qa[1])/qa[1], v)
		}
	}
	return code
}

// loadValues reads the untraced records in dir into
// workload -> metric -> values.
func loadValues(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced records in %s", dir)
	}
	return out, nil
}

// quartiles returns the first quartile, the median and the third quartile
// of xs by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so that the spreads compare reports are the ones
// that function gives.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// verdict judges set b against set a for one metric. Spreads wider than
// the bound leave the metric unresolved unless every value of b is better
// (improved) or worse beyond the bound (regressed) than every value of a.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	qa, qb := quartiles(a), quartiles(b)
	worse := (qb[1] - qa[1]) / qa[1]
	if higherBetter {
		worse = -worse
	}
	better := func(x, y float64) bool { return (x > y) == higherBetter && x != y }
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && better(y, x)
			allWorse = allWorse && better(x, y)
		}
	}
	switch {
	case spread(qa) > bound || spread(qb) > bound:
		if allBetter {
			return "improved"
		}
		if allWorse && worse > bound {
			return "regressed"
		}
		return "unresolved"
	case worse > bound:
		return "regressed"
	case -worse > bound:
		return "improved"
	default:
		return "within bound"
	}
}
