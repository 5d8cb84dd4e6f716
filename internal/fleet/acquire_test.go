package fleet

import (
	"context"
	"testing"
	"time"
)

// TestAcquireReturnsOnCancel: with no usable worker, acquire polls until
// its context is cancelled and then returns nil promptly.
func TestAcquireReturnsOnCancel(t *testing.T) {
	c, err := New(Config{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	c.workers[0].healthy.Store(false)

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan *worker, 1)
	go func() { got <- c.acquire(ctx) }()
	time.Sleep(20 * time.Millisecond) // several poll rounds
	cancel()
	select {
	case w := <-got:
		if w != nil {
			t.Fatalf("acquire returned worker %s with none usable", w.url)
		}
	case <-time.After(time.Second):
		t.Fatal("acquire still blocked 1s after its context was cancelled")
	}
}
