package cache

import (
	"context"
	"sync"
)

// Group is an exported, context-aware single-flight keyed by Key: concurrent
// Do calls with the same key run the function once and share its value. It is
// the repository's only single-flight: Cache lookups coalesce through one,
// and the jpgd serving layer uses another to make N identical in-flight HTTP
// requests cost one flow execution.
//
// Two properties matter at a service boundary:
//
//   - Waiting is cancellable. A follower whose context ends while the leader
//     is still computing unblocks immediately with ctx.Err() instead of
//     holding its goroutine (and HTTP connection) until the leader finishes.
//   - Leader failure promotes a follower instead of stampeding. When the
//     leader returns an error, exactly one waiter becomes the next leader and
//     retries; the rest keep waiting. Failures therefore serialise instead of
//     fanning out into as many concurrent retries as there were waiters.
//
// The zero value is ready to use. Values are shared by reference between the
// leader and every follower, so they must be treated as immutable once
// returned (the same contract as GetOrComputeValue).
type Group struct {
	mu      sync.Mutex
	flights map[Key]*groupFlight
}

type groupFlight struct {
	done    chan struct{}
	val     any
	err     error
	waiters int // followers blocked on done (guarded by Group.mu)
}

// Do returns the value of fn for key k, coalescing concurrent calls: one
// caller (the leader) runs fn, everyone else waits and shares the result.
// shared reports whether the value came from another caller's execution.
// fn's error is returned only by the caller that ran it; waiters react to a
// failed flight by electing a new leader among themselves.
func (g *Group) Do(ctx context.Context, k Key, fn func() (any, error)) (val any, shared bool, err error) {
	for {
		g.mu.Lock()
		if g.flights == nil {
			g.flights = map[Key]*groupFlight{}
		}
		if f := g.flights[k]; f != nil {
			f.waiters++
			g.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				g.mu.Lock()
				f.waiters--
				g.mu.Unlock()
				return nil, false, ctx.Err()
			}
			if f.err != nil {
				// The leader failed; loop to either join a flight another
				// waiter has already opened or become the new leader.
				continue
			}
			return f.val, true, nil
		}
		f := &groupFlight{done: make(chan struct{})}
		g.flights[k] = f
		g.mu.Unlock()

		f.val, f.err = fn()
		g.mu.Lock()
		delete(g.flights, k)
		g.mu.Unlock()
		close(f.done)
		return f.val, false, f.err
	}
}

// Waiters reports how many callers are waiting on the flight for k (0 when
// none is executing). It is a probe for tests; the answer can be stale by
// the time it is used.
func (g *Group) Waiters(k Key) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f := g.flights[k]; f != nil {
		return f.waiters
	}
	return 0
}
