package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		got, err := Map(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty map: got (%v, %v), want (nil, nil)", got, err)
	}
}

// TestMapWithStatePerWorker: each worker obtains exactly one state value
// and every invocation it runs sees that value, so callers can safely hang
// reusable resources off it.
func TestMapWithStatePerWorker(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var states atomic.Int32
		seen := sync.Map{}
		got, err := MapWith(workers, 40,
			func() *int32 { id := states.Add(1); return &id },
			func(state *int32, i int) (int, error) {
				seen.Store(i, *state)
				return i + int(*state), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if n := int(states.Load()); n > workers {
			t.Errorf("workers=%d: %d states created, want at most %d", workers, n, workers)
		}
		for i, v := range got {
			state, _ := seen.Load(i)
			if v != i+int(state.(int32)) {
				t.Errorf("workers=%d: result[%d] = %d inconsistent with state %d", workers, i, v, state)
			}
		}
	}
}

// TestMapWithSequentialSingleState: the workers<=1 path shares one state
// across all indices.
func TestMapWithSequentialSingleState(t *testing.T) {
	calls := 0
	_, err := MapWith(1, 10,
		func() *int { calls++; return new(int) },
		func(state *int, i int) (int, error) { *state++; return *state, nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("newState called %d times, want 1", calls)
	}
}

// TestMapErrorDeterminism: whichever worker fails first in wall-clock time,
// the reported error must be the lowest-index one.
func TestMapErrorDeterminism(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := Map(8, 20, func(i int) (int, error) {
		if i == 3 || i == 17 {
			return 0, fmt.Errorf("index %d: %w", i, wantErr)
		}
		return i, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
	if got := err.Error(); got != "index 3: boom" {
		t.Errorf("got error %q, want the lowest-index one", got)
	}
}

// TestMapRecoversPanic: a panicking work item surfaces as a *PanicError
// carrying its index and value instead of crashing the process, and the
// lowest-index-wins contract holds between panics and plain errors.
func TestMapRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 20, func(i int) (int, error) {
			if i == 7 {
				panic("kaboom")
			}
			return i, nil
		})
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("workers=%d: got %v, want ErrPanic", workers, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %T, want *PanicError", workers, err)
		}
		if pe.Index != 7 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError = {%d %v stack:%d}, want index 7, kaboom, a stack",
				workers, pe.Index, pe.Value, len(pe.Stack))
		}
	}

	// A panic at a higher index loses to a plain error at a lower one, and
	// an error panic value stays visible to errors.Is through the chain.
	wantErr := errors.New("inner")
	_, err := Map(4, 20, func(i int) (int, error) {
		if i == 2 {
			return 0, fmt.Errorf("index 2: %w", wantErr)
		}
		if i == 11 {
			panic("later")
		}
		return i, nil
	})
	if errors.Is(err, ErrPanic) || !errors.Is(err, wantErr) {
		t.Errorf("got %v, want the index-2 plain error", err)
	}
	_, err = Map(1, 3, func(i int) (int, error) {
		if i == 1 {
			panic(wantErr)
		}
		return i, nil
	})
	if !errors.Is(err, ErrPanic) || !errors.Is(err, wantErr) {
		t.Errorf("got %v, want a PanicError chaining the panicked error", err)
	}
}

// mapCtx runs a stateless batch through MapWithCtx, the pool's
// context-aware entry point.
func mapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, []bool, error) {
	return MapWithCtx(ctx, workers, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// TestMapCtxCancelSkipsPending: cancelling mid-batch returns promptly, the
// done mask exactly partitions finished from never-started items, and every
// finished item's result is bit-identical to an uncancelled run.
func TestMapCtxCancelSkipsPending(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		results, done, err := mapCtx(ctx, workers, 100, func(i int) (int, error) {
			if ran.Add(1) == 5 {
				cancel()
			}
			return i * i, nil
		})
		cancel()
		if !errors.Is(err, ErrSkipped) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want ErrSkipped wrapping context.Canceled", workers, err)
		}
		if len(results) != 100 || len(done) != 100 {
			t.Fatalf("workers=%d: got %d results, %d done", workers, len(results), len(done))
		}
		finished := 0
		for i, ok := range done {
			if ok {
				finished++
				if results[i] != i*i {
					t.Errorf("workers=%d: finished result[%d] = %d, want %d", workers, i, results[i], i*i)
				}
			} else if results[i] != 0 {
				t.Errorf("workers=%d: skipped result[%d] = %d, want zero", workers, i, results[i])
			}
		}
		if finished == 0 || finished == 100 {
			t.Errorf("workers=%d: %d items finished, want a genuine partial batch", workers, finished)
		}
	}
}

// TestMapCtxDeadline: an already-expired deadline runs nothing and reports
// the deadline as the cause.
func TestMapCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	_, done, err := mapCtx(ctx, 4, 10, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded in the chain", err)
	}
	for i, ok := range done {
		if ok {
			t.Errorf("item %d ran after the deadline", i)
		}
	}
}

// TestMapCtxComplete: with an un-cancelled context the ctx variant matches
// Map exactly and reports every item done.
func TestMapCtxComplete(t *testing.T) {
	results, done, err := mapCtx(context.Background(), 4, 30, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i] != i+1 || !done[i] {
			t.Fatalf("result[%d] = (%d, done=%v), want (%d, true)", i, results[i], done[i], i+1)
		}
	}
}

// TestMapCtxCancelPromptAndLeakFree: a cancelled batch with slow pending
// items returns without waiting for the full batch, and the worker
// goroutines are gone shortly after. This is the engine's graceful-drain
// guarantee: only in-flight items hold up the return.
func TestMapCtxCancelPromptAndLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	go func() {
		// Cancel once the pool is saturated, then release the in-flight
		// items.
		for i := 0; i < 4; i++ {
			<-started
		}
		cancel()
		close(release)
	}()
	begun := time.Now()
	_, done, err := mapCtx(ctx, 4, 1000, func(i int) (int, error) {
		started <- struct{}{}
		<-release
		return i, nil
	})
	if elapsed := time.Since(begun); elapsed > 10*time.Second {
		t.Fatalf("cancelled batch took %v, want a prompt return", elapsed)
	}
	if !errors.Is(err, ErrSkipped) {
		t.Fatalf("got %v, want ErrSkipped", err)
	}
	finished := 0
	for _, ok := range done {
		if ok {
			finished++
		}
	}
	// 4 items were in flight when the dispatcher stopped; a 5th may have
	// been handed off concurrently with the cancellation.
	if finished < 4 || finished > 8 {
		t.Errorf("%d items finished, want only the in-flight handful", finished)
	}
	// The workers must unwind: poll the goroutine count briefly.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+1 {
		t.Errorf("%d goroutines alive after cancel, started with %d: worker leak", now, before)
	}
}

// TestMapWithCtxStateReuseMatchesSequential: per-worker state plus
// cancellation keeps the MapWith contract for every completed item.
func TestMapWithCtxStateReuseMatchesSequential(t *testing.T) {
	ctx := context.Background()
	results, done, err := MapWithCtx(ctx, 3, 25,
		func() *int { return new(int) },
		func(state *int, i int) (int, error) {
			*state++ // per-worker scratch must not influence results
			return i * 3, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if !done[i] || results[i] != i*3 {
			t.Fatalf("result[%d] = (%d, %v), want (%d, true)", i, results[i], done[i], i*3)
		}
	}
}
