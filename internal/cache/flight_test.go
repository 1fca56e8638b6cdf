package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testKey(s string) Key {
	h := NewHasher("test/flight")
	h.Str("k", s)
	return h.Sum()
}

func TestGroupCoalescesConcurrentCalls(t *testing.T) {
	var g Group
	var execs atomic.Int64
	release := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	vals := make([]any, n)
	shareds := make([]bool, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			vals[i], shareds[i], errs[i] = g.Do(context.Background(), testKey("a"), func() (any, error) {
				execs.Add(1)
				<-release
				return "result", nil
			})
		}(i)
	}
	// Release the leader only once every other caller waits on its flight;
	// a caller that arrives after the flight ends would run fn again.
	deadline := time.Now().Add(10 * time.Second)
	for joined := 0; joined < n-1; joined = g.Waiters(testKey("a")) {
		if time.Now().After(deadline) {
			close(release)
			wg.Wait()
			t.Fatalf("only %d of %d followers joined the flight", joined, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if vals[i] != "result" {
			t.Fatalf("call %d value %v", i, vals[i])
		}
		if !shareds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers report shared=false, want exactly 1", leaders)
	}
}

func TestGroupDistinctKeysDoNotCoalesce(t *testing.T) {
	var g Group
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Do(context.Background(), testKey(fmt.Sprint(i)), func() (any, error) {
				execs.Add(1)
				return i, nil
			})
		}(i)
	}
	wg.Wait()
	if got := execs.Load(); got != 4 {
		t.Fatalf("fn executed %d times, want 4", got)
	}
}

func TestGroupFollowerCancellation(t *testing.T) {
	var g Group
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go g.Do(context.Background(), testKey("slow"), func() (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, testKey("slow"), func() (any, error) { return nil, nil })
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled follower still blocked on the leader")
	}
}

// TestGroupLeaderFailurePromotesOneFollower pins the retry semantics: when
// the leader errors, the waiters do not stampede — they re-enter one at a
// time, so a deterministic failure costs one execution per waiter at most,
// serially, and a subsequent success is shared by everyone still waiting.
func TestGroupLeaderFailurePromotesOneFollower(t *testing.T) {
	var g Group
	var execs atomic.Int64
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), testKey("fail"), func() (any, error) {
			close(leaderIn)
			<-leaderGo
			execs.Add(1)
			return nil, errors.New("boom")
		})
		leaderErr <- err
	}()
	<-leaderIn

	const n = 8
	var wg sync.WaitGroup
	var reruns atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := g.Do(context.Background(), testKey("fail"), func() (any, error) {
				execs.Add(1)
				reruns.Add(1)
				return "recovered", nil
			})
			if err != nil {
				t.Errorf("follower error: %v", err)
			}
			if v != "recovered" {
				t.Errorf("follower value %v", v)
			}
		}()
	}
	// Give the followers time to join the failing flight, then let it fail.
	time.Sleep(10 * time.Millisecond)
	close(leaderGo)
	wg.Wait()

	if err := <-leaderErr; err == nil || err.Error() != "boom" {
		t.Fatalf("leader error = %v, want boom", err)
	}
	if got := reruns.Load(); got < 1 {
		t.Fatalf("no follower was promoted after the leader failed")
	}
	// Promotion serialises retries: at worst the failed leader plus one run
	// per waiter, never a concurrent stampede beyond the waiter count.
	if got := execs.Load(); got > n+1 {
		t.Fatalf("executions %d exceed failed leader + %d waiters", got, n)
	}
}
