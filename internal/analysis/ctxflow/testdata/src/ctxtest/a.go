// Package ctxtest exercises the ctxflow analyzer: ambient context roots,
// dropped and nil contexts, and uncancelable select loops.
package ctxtest

import "context"

func blockingWork(ctx context.Context) error { return ctx.Err() }

func dropsCtx(ctx context.Context) error {
	return blockingWork(context.Background()) // want `context.Background\(\) drops the ctx this function already receives`
}

func ambientRoot() error {
	return blockingWork(context.TODO()) // want `ambient context.TODO\(\) below cmd/`
}

func documentedRoot() error {
	//lint:allow ctxflow this fixture models the daemon lifecycle root
	return blockingWork(context.Background())
}

func nilCtx(ctx context.Context) error {
	return blockingWork(nil) // want `passes nil for the context.Context parameter of blockingWork`
}

func forEach(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// nilInCallback: the literal closes over ctx, so it has one to thread.
func nilInCallback(ctx context.Context) {
	forEach(2, func(int) {
		_ = blockingWork(nil) // want `passes nil for the context.Context parameter of blockingWork`
	})
}

// nilWithoutCtx has no context of its own to thread, so the nil pass is not
// this function's fault (the API shape is).
func nilWithoutCtx() error {
	return blockingWork(nil)
}

func threads(ctx context.Context) error {
	return blockingWork(ctx)
}

func derived(ctx context.Context) error {
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	return blockingWork(sub)
}

// --- select loops ---

func uncancelable(events chan int) {
	go func() {
		for {
			select { // want `infinite select loop has no cancellation case`
			case <-events:
			}
		}
	}()
}

// defaultOnly: a default case makes one iteration non-blocking, not the
// loop stoppable.
func defaultOnly(events chan int) {
	for {
		select { // want `infinite select loop has no cancellation case`
		case <-events:
		default:
		}
	}
}

func cancelableCtx(ctx context.Context, events chan int) {
	for {
		select {
		case <-events:
		case <-ctx.Done():
			return
		}
	}
}

func cancelableChan(events chan int, stop chan struct{}) {
	for {
		select {
		case <-events:
		case <-stop:
			return
		}
	}
}

// bounded loops with selects are not "infinite select loops".
func boundedSelect(events chan int) {
	for i := 0; i < 3; i++ {
		select {
		case <-events:
		default:
		}
	}
}
