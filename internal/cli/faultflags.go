package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"hidinglcp/internal/faults"
)

// FaultFlags carries the fault-injection flag values shared by the
// commands that drive the simulator (cmd/lcpcheck, cmd/experiments).
type FaultFlags struct {
	// Spec is the -faults value: a comma-separated fault specification,
	// e.g. "drop=0.2,dup=0.1,delay=0.3:2,reorder,corrupt=1+4,trace".
	Spec string
	// Seed keys every fault decision; same seed, same schedule.
	Seed int64
	// Crash is the -crash value: comma-separated node[@round] crash-stop
	// entries, e.g. "3@0,5@2"; a bare node number crashes at round 0.
	Crash string
}

// RegisterFaultFlags declares the shared fault-injection flags on the
// default flag set and returns the destination struct, to be read after
// flag.Parse.
func RegisterFaultFlags() *FaultFlags {
	var f FaultFlags
	flag.StringVar(&f.Spec, "faults", "",
		"fault specification: comma-separated drop=P, dup=P, delay=P[:MAX], reorder, corrupt=V1+V2, trace")
	flag.Int64Var(&f.Seed, "seed", 0, "seed for the deterministic fault schedule (same seed, same run)")
	flag.StringVar(&f.Crash, "crash", "", "crash-stop schedule: comma-separated node[@round], e.g. 3@0,5@2")
	return &f
}

// Plan parses the flag values into a faults.Plan. The zero flag set
// parses to the zero plan (fault-free), so commands can call Plan
// unconditionally.
func (f *FaultFlags) Plan() (faults.Plan, error) {
	plan := faults.Plan{Seed: f.Seed}
	if f.Spec != "" {
		if err := parseFaultSpec(f.Spec, &plan); err != nil {
			return faults.Plan{}, fmt.Errorf("-faults: %w", err)
		}
	}
	if f.Crash != "" {
		crashes, err := parseCrashSpec(f.Crash)
		if err != nil {
			return faults.Plan{}, fmt.Errorf("-crash: %w", err)
		}
		plan.Crashes = crashes
	}
	return plan, nil
}

func parseFaultSpec(spec string, plan *faults.Plan) error {
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, hasVal := strings.Cut(field, "=")
		switch key {
		case "reorder":
			if hasVal {
				return fmt.Errorf("reorder takes no value")
			}
			plan.Reorder = true
		case "trace":
			if hasVal {
				return fmt.Errorf("trace takes no value")
			}
			plan.Trace = true
		case "drop", "dup", "delay":
			if !hasVal {
				return fmt.Errorf("%s needs a probability, e.g. %s=0.2", key, key)
			}
			probStr := val
			if key == "delay" {
				if p, max, ok := strings.Cut(val, ":"); ok {
					probStr = p
					n, err := strconv.Atoi(max)
					if err != nil || n < 1 {
						return fmt.Errorf("delay bound %q is not a positive integer", max)
					}
					plan.MaxDelay = n
				}
			}
			p, err := strconv.ParseFloat(probStr, 64)
			if err != nil {
				return fmt.Errorf("%s probability %q: %v", key, probStr, err)
			}
			switch key {
			case "drop":
				plan.Drop = p
			case "dup":
				plan.Duplicate = p
			case "delay":
				plan.Delay = p
			}
		case "corrupt":
			if !hasVal {
				return fmt.Errorf("corrupt needs node numbers, e.g. corrupt=1+4")
			}
			for _, s := range strings.Split(val, "+") {
				v, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return fmt.Errorf("corrupt node %q is not an integer", s)
				}
				plan.CorruptNodes = append(plan.CorruptNodes, v)
			}
		default:
			return fmt.Errorf("unknown fault %q (want drop, dup, delay, reorder, corrupt, trace)", key)
		}
	}
	return nil
}

func parseCrashSpec(spec string) (map[int]int, error) {
	crashes := make(map[int]int)
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		nodeStr, roundStr, hasRound := strings.Cut(field, "@")
		v, err := strconv.Atoi(nodeStr)
		if err != nil {
			return nil, fmt.Errorf("crash node %q is not an integer", nodeStr)
		}
		round := 0
		if hasRound {
			round, err = strconv.Atoi(roundStr)
			if err != nil {
				return nil, fmt.Errorf("crash round %q is not an integer", roundStr)
			}
		}
		if prev, dup := crashes[v]; dup {
			return nil, fmt.Errorf("node %d crashes twice (rounds %d and %d)", v, prev, round)
		}
		crashes[v] = round
	}
	if len(crashes) == 0 {
		return nil, fmt.Errorf("empty crash schedule")
	}
	return crashes, nil
}
