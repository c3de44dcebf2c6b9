// Package parexec is the deterministic worker pool behind the parallel
// evaluation flows: tablegen's circuit×flow matrix, the AIG rewrite
// waves, the sweep proof shards, bitsim's stream blocks, resynd's job
// queue and the fault-acceptance sweep all fan their independent work
// items through it.
//
// Determinism contract: results are collected by input index, so Map's
// output (and therefore anything serialized from it, such as Table-I rows
// or JSONL trace streams) is byte-identical regardless of worker count or
// scheduling. Workers must not share mutable state — callers hand each
// item a private clone (guard.Tx already clones per pass) and a private
// tracer, which the caller merges back in index order.
package parexec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Workers normalizes a worker-count flag: values <= 0 select GOMAXPROCS,
// anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// panicError carries a worker panic back to the caller's goroutine so it
// can be re-raised there with the original value preserved.
type panicError struct {
	item int
	val  interface{}
}

func (p *panicError) Error() string {
	return fmt.Sprintf("parexec: worker panic on item %d: %v", p.item, p.val)
}

// Map runs fn over every item with at most workers goroutines and returns
// the results in input order. The first error cancels the remaining,
// not-yet-started items (in-flight items run to completion) and is
// returned; results computed before the failure are still present in the
// slice. A worker panic is captured and re-raised on the calling
// goroutine once all workers have stopped, so deferred cleanup in the
// caller still runs and no goroutine dies detached.
//
// fn receives the item index and the context; it must treat everything it
// touches as goroutine-private (see the package comment).
func Map[I, O any](ctx context.Context, workers int, items []I, fn func(ctx context.Context, idx int, item I) (O, error)) ([]O, error) {
	out := make([]O, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	workers = Workers(workers)
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 1 {
		// Run inline: identical semantics, zero goroutine overhead, and the
		// exact path the determinism test compares the pool against.
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			r, err := fn(ctx, i, it)
			if err != nil {
				return out, err
			}
			out[i] = r
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		next     int
		wg       sync.WaitGroup
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(items) || firstErr != nil {
			return -1
		}
		i := next
		next++
		return i
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 || ctx.Err() != nil {
					return
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = &panicError{item: i, val: r}
						}
					}()
					r, err := fn(ctx, i, items[i])
					if err == nil {
						out[i] = r
					}
					return err
				}()
				if err != nil {
					setErr(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if pe, ok := firstErr.(*panicError); ok {
		panic(pe.val)
	}
	if firstErr != nil {
		return out, firstErr
	}
	return out, ctx.Err()
}
