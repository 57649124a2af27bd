//go:build race

package sim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph/graphtest"
	"hidinglcp/internal/obs"
)

// TestRaceGatherStress hammers the message-passing simulator from many
// goroutines at once — far beyond what the functional tests exercise — so
// the race detector sees any state that concurrent gathers share.
// The file is built only under -race: it is a regression guard for the data
// races the detector would catch, not a functional test.
func TestRaceGatherStress(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type job struct {
		l core.Labeled
		r int
	}
	var jobs []job
	for trial := 0; trial < 6; trial++ {
		g := graphtest.ConnectedGNP(8+rng.Intn(6), 0.35, rng)
		l := labeled(g, randomLabels(g.N(), rng))
		for r := 0; r <= 3; r++ {
			jobs = append(jobs, job{l, r})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, j := range jobs {
				if i%2 != w%2 {
					continue
				}
				got, _, err := gather(j.l, j.r)
				if err != nil {
					t.Errorf("worker %d: gather(r=%d): %v", w, j.r, err)
					return
				}
				want, err := j.l.Views(j.r)
				if err != nil {
					t.Errorf("worker %d: Views(r=%d): %v", w, j.r, err)
					return
				}
				for v := range got {
					if got[v].Key() != want[v].Key() {
						t.Errorf("worker %d: node %d radius %d: gathered view differs", w, v, j.r)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRaceGatherFaultsStress runs the fault scheduler concurrently from
// many workers with the same chaotic plan and checks bit-identical replays
// across all of them while the race detector watches for state shared
// between concurrent gathers.
func TestRaceGatherFaultsStress(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := graphtest.ConnectedGNP(11, 0.35, rng)
	l := labeled(g, randomLabels(g.N(), rng))
	plan := faults.Plan{
		Seed:      99,
		Drop:      0.2,
		Duplicate: 0.2,
		Delay:     0.3,
		MaxDelay:  2,
		Reorder:   true,
		Crashes:   map[int]int{2: 1, 8: 0},
		Trace:     true,
	}
	baseViews, baseStats, baseRep, err := Gather(nil, obs.Scope{}, l, 3, plan)
	if err != nil {
		t.Fatal(err)
	}
	baseKeys := make([]string, len(baseViews))
	for v, mu := range baseViews {
		if mu != nil {
			baseKeys[v] = mu.Key()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				views, stats, rep, err := Gather(nil, obs.Scope{}, l, 3, plan)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if stats != baseStats {
					t.Errorf("worker %d: stats %+v differ from %+v", w, stats, baseStats)
					return
				}
				for v, mu := range views {
					key := ""
					if mu != nil {
						key = mu.Key()
					}
					if key != baseKeys[v] {
						t.Errorf("worker %d: node %d view differs under replay", w, v)
						return
					}
				}
				if !reflect.DeepEqual(rep.TraceLines(), baseRep.TraceLines()) {
					t.Errorf("worker %d: schedule trace differs under replay", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
