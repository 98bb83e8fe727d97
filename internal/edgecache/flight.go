package edgecache

import (
	"context"
	"sync"
)

// call is one in-flight fetch: the leader closes done when fn returns,
// and followers read err afterwards.
type call struct {
	done chan struct{}
	err  error
}

// Flight coalesces concurrent fetches per key: the first caller for a
// key runs fn, every concurrent caller for the same key waits for that
// one result instead of issuing its own. Keys are independent.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*call
}

// Do runs fn for key, unless a call for key is already in flight — then
// it waits for that call's result instead. shared reports whether this
// caller attached to another caller's fetch. A follower whose ctx expires
// returns ctx.Err() immediately while the leader's fetch continues for
// the remaining waiters. The leader's error — nil or not — is propagated
// to every attached waiter.
func (f *Flight) Do(ctx context.Context, key string, fn func() error) (shared bool, err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*call)
	}
	if cl, ok := f.calls[key]; ok {
		f.mu.Unlock()
		select {
		case <-cl.done:
			return true, cl.err
		case <-ctx.Done():
			return true, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	f.calls[key] = cl
	f.mu.Unlock()

	cl.err = fn()

	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(cl.done)
	return false, cl.err
}
