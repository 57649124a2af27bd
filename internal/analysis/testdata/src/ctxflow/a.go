// Fixture for the ctxflow analyzer: misplaced context parameters,
// struct-stored contexts, fresh context roots, and nil passed as a context
// are seeded violations; first-position contexts, context-free functions,
// forwarded contexts, and //lint:ignore'd call sites stay clean. The
// package name "ctxflow" is in the restricted set, so Background/TODO calls
// and nil-context calls here stand in for engine/core/nbhd/sim bodies.
package ctxflow

import "context"

// goodFirst threads the context in first position: clean.
func goodFirst(ctx context.Context, n int) error {
	_ = n
	return ctx.Err()
}

// goodNoCtx takes no context at all: clean.
func goodNoCtx(n int) int { return n + 1 }

// badSecond buries the context behind another parameter.
func badSecond(n int, ctx context.Context) error { // want "context.Context must be the first parameter, not parameter 2"
	_ = n
	return ctx.Err()
}

// badGrouped hides the context at the tail of a grouped declaration.
func badGrouped(a, b int, ctx context.Context) { // want "context.Context must be the first parameter, not parameter 3"
	_, _, _ = a, b, ctx
}

// Function literals are held to the same rule.
var _ = func(n int, ctx context.Context) { // want "context.Context must be the first parameter, not parameter 2"
	_, _ = n, ctx
}

// badHolder stores a context for later: the context outlives the call it
// was scoped to.
type badHolder struct {
	ctx context.Context // want "context.Context must not be stored in a struct field"
	n   int
}

// goodJob carries only data; its Run method takes the context.
type goodJob struct{ name string }

func (j goodJob) run(ctx context.Context) error { return ctx.Err() }

// badRoot mints fresh roots inside a restricted package, detaching the
// work from the caller's deadline.
func badRoot() context.Context {
	_ = context.TODO() // want "context.TODO must not be called in package ctxflow"
	return context.Background() // want "context.Background must not be called in package ctxflow"
}

// goodWithCancel derives from the caller's context: deriving is fine,
// only minting roots is banned.
func goodWithCancel(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}

// suppressedRoot mirrors a sanctioned root behind an explicit directive.
func suppressedRoot() context.Context {
	//lint:ignore ctxflow test scaffolding needs a detached root
	return context.Background()
}

// pipelineCtx is a (ctx, …) pipeline entry point.
func pipelineCtx(ctx context.Context, n int) error {
	_ = n
	return ctx.Err()
}

// variadicCtx takes its contexts variadically.
func variadicCtx(n int, ctxs ...context.Context) { _, _ = n, ctxs }

// badBareWrapper re-exports the pipeline without a context: the triplet
// shape the rule keeps from coming back.
func badBareWrapper(n int) error {
	return pipelineCtx(nil, n) // want "nil passed as context.Context in package ctxflow"
}

// badVariadicNil passes nil into a variadic context parameter.
func badVariadicNil() {
	variadicCtx(1, nil) // want "nil passed as context.Context in package ctxflow"
}

// goodForward threads the caller's context through: clean.
func goodForward(ctx context.Context, n int) error {
	return pipelineCtx(ctx, n)
}

// goodNilNonContext passes nil where no context is expected: clean.
func goodNilNonContext() {
	variadicCtx(0, nil...)
	_ = append([]error(nil), nil)
}

// suppressedBareWrapper keeps a nil-context call behind an explicit
// directive.
func suppressedBareWrapper(n int) error {
	//lint:ignore ctxflow fixture for the suppression path
	return pipelineCtx(nil, n)
}
