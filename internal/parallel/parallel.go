// Package parallel provides the deterministic worker pool shared by the
// simulation batch runner (sim.RunMany) and the experiment grid engine.
// Work items are independent and indexed; results come back in index order
// and the lowest-index error wins, so output never depends on goroutine
// scheduling. MapWith additionally threads one reusable state value per
// worker through the items it processes, so callers can amortize large
// allocations (simulators, arenas) across a batch without affecting
// results.
//
// The pool is hardened for service use: the context-aware variants
// (MapCtx, MapWithCtx) propagate deadlines and cancellation — in-flight
// items finish, pending items are skipped — and every variant isolates a
// panicking work item into a *PanicError instead of taking down the
// process.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// ErrPanic is the sentinel wrapped by every *PanicError, so callers can
// classify recovered worker panics with errors.Is.
var ErrPanic = errors.New("parallel: work item panicked")

// PanicError reports a work item that panicked. The pool recovers the panic
// in the worker goroutine, so one poisoned item surfaces as an indexed
// error — subject to the usual lowest-index-wins rule — instead of
// crashing the whole process.
type PanicError struct {
	// Index is the work item that panicked.
	Index int

	// Value is the recovered panic value.
	Value any

	// Stack is the panicking goroutine's stack trace, captured at
	// recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("%v: item %d: %v", ErrPanic, e.Index, e.Value)
}

// Unwrap makes errors.Is(err, ErrPanic) work. If the panic value itself was
// an error it is exposed to errors.Is/As through ErrPanic's chain too.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return fmt.Errorf("%w: %w", ErrPanic, err)
	}
	return ErrPanic
}

// ErrSkipped is the sentinel wrapped by the error MapCtx/MapWithCtx return
// when cancellation struck items from the batch before they could run. The
// context's cause is in the same chain, so errors.Is(err, context.Canceled)
// (or DeadlineExceeded) works as well.
var ErrSkipped = errors.New("parallel: items skipped by cancellation")

// Map evaluates fn at indices 0..n-1 across at most workers goroutines
// (zero or negative workers: GOMAXPROCS) and returns the results in index
// order. All indices are evaluated even when one fails; the lowest-index
// error is returned, so failures are deterministic under parallelism too.
// A panicking item is reported as a *PanicError rather than propagated.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapWith(workers, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// MapWith is Map with per-worker state: every worker goroutine obtains one
// value from newState and hands it to each invocation it executes. The
// state exists to carry reusable resources — simulators, arenas, scratch
// buffers — across the work items a worker happens to process; it must not
// influence results, which keep the Map contract (index order, all indices
// evaluated, lowest-index error) regardless of how items land on workers.
func MapWith[S, T any](workers, n int, newState func() S, fn func(state S, i int) (T, error)) ([]T, error) {
	results, _, err := MapWithCtx(context.Background(), workers, n, newState, fn)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MapCtx is Map under a context: no new work item starts once ctx is done.
// See MapWithCtx for the cancellation contract.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, []bool, error) {
	return MapWithCtx(ctx, workers, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// MapWithCtx is MapWith under a context. Cancellation (or an expired
// deadline) stops the dispatch of pending work items; items already in
// flight run to completion, so every index is either fully evaluated or
// never started — a completed item's result is bit-identical to what an
// uncancelled run would have produced for that index.
//
// It returns the results and a done mask in index order: done[i] reports
// whether fn ran for index i (true even when fn returned an error). The
// error is the lowest-index item error — including recovered panics, as
// *PanicError — or, when every executed item succeeded but cancellation
// skipped some, an error wrapping ErrSkipped and the context's cause.
// Unlike Map/MapWith, the partial results are returned alongside a non-nil
// error, so callers can keep completed work.
func MapWithCtx[S, T any](ctx context.Context, workers, n int, newState func() S, fn func(state S, i int) (T, error)) ([]T, []bool, error) {
	if n <= 0 {
		return nil, nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	done := make([]bool, n)
	if workers <= 1 {
		state := newState()
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			results[i], errs[i] = runItem(state, i, fn)
			done[i] = true
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				state := newState()
				for i := range jobs {
					results[i], errs[i] = runItem(state, i, fn)
					done[i] = true
				}
			}()
		}
		// The dispatcher stops feeding as soon as the context is done;
		// the unbuffered channel guarantees every index it sent was
		// picked up by a worker, so done[] exactly partitions the batch
		// into finished and never-started items.
	feed:
		for i := 0; i < n; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return results, done, err
		}
	}
	for _, ok := range done {
		if !ok {
			skipped := 0
			for _, ok := range done {
				if !ok {
					skipped++
				}
			}
			return results, done, fmt.Errorf("%w: %d of %d: %w",
				ErrSkipped, skipped, n, context.Cause(ctx))
		}
	}
	return results, done, nil
}

// runItem executes one work item, converting a panic into a *PanicError so
// a poisoned item cannot take down the worker pool. The non-panicking path
// adds no allocations (the defer is open-coded and its closure stays on the
// stack).
func runItem[S, T any](state S, i int, fn func(state S, i int) (T, error)) (result T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(state, i)
}
