package cli

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"time"
)

// RunFlags carries the shared run-lifetime flags: a relative -timeout and
// an absolute -deadline. Both bound the whole run through one
// context.Context that every pipeline observes at its next
// shard/instance/round checkpoint (see internal/engine).
type RunFlags struct {
	// Timeout bounds the run's duration (0 = unbounded).
	Timeout time.Duration
	// Deadline is an absolute RFC 3339 stop time ("" = none), e.g.
	// 2026-08-07T17:30:00Z.
	Deadline string
}

// RegisterRunFlags declares the shared -timeout/-deadline flags on the
// default flag set and returns the destination struct, to be read after
// flag.Parse.
func RegisterRunFlags() *RunFlags {
	var f RunFlags
	flag.DurationVar(&f.Timeout, "timeout", 0, "cancel the run after this duration, e.g. 30s, 5m (0 = no limit)")
	flag.StringVar(&f.Deadline, "deadline", "", "cancel the run at this RFC 3339 time, e.g. 2026-08-07T17:30:00Z")
	return &f
}

// Context builds the run context the flags describe. With neither flag set
// it returns a nil context — the never-cancelled context every pipeline
// accepts (internal/cancel) — so the unbounded path stays exactly the
// historical one. When both are set, whichever fires first wins. The
// returned stop function must be called once the run finishes (it releases
// the timer; safe to call with a nil context's no-op).
func (f *RunFlags) Context() (context.Context, context.CancelFunc, error) {
	if f.Timeout == 0 && f.Deadline == "" {
		return nil, func() {}, nil
	}
	if f.Timeout < 0 {
		return nil, nil, fmt.Errorf("negative -timeout %v", f.Timeout)
	}
	ctx := context.Background()
	stop := context.CancelFunc(func() {})
	if f.Deadline != "" {
		at, err := time.Parse(time.RFC3339, f.Deadline)
		if err != nil {
			return nil, nil, fmt.Errorf("bad -deadline (want RFC 3339, e.g. 2026-08-07T17:30:00Z): %w", err)
		}
		ctx, stop = context.WithDeadline(ctx, at)
	}
	if f.Timeout > 0 {
		inner := stop
		ctx, stop = context.WithTimeout(ctx, f.Timeout)
		outer := stop
		stop = func() { outer(); inner() }
	}
	return ctx, stop, nil
}

// Count is a flag.Value for a count such as -shards or -workers, where 0
// selects the default. A negative value fails flag parsing rather than
// silently running at the default.
type Count int

// String formats the count.
func (c *Count) String() string {
	if c == nil {
		return "0"
	}
	return strconv.Itoa(int(*c))
}

// Set parses a nonnegative count.
func (c *Count) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("not an integer: %q", s)
	}
	if v < 0 {
		return fmt.Errorf("must not be negative, got %d", v)
	}
	*c = Count(v)
	return nil
}
