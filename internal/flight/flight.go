// Package flight provides in-flight call deduplication (a minimal
// generic singleflight): concurrent Do calls with the same key share one
// execution of the function and all receive its result.
//
// The Session profile caches use it so that parallel experiment jobs
// needing the same isolated profile trigger exactly one profiling
// simulation instead of one per worker, and its non-blocking TryDo so
// that a worker whose profile is already being simulated takes another
// profile instead of waiting.
package flight

import (
	"fmt"
	"sync"
)

// call is one in-flight execution.
type call[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Group deduplicates concurrent calls by key. The zero value is ready to
// use. V is shared between all callers of the same key, so it must be
// safe for concurrent read (immutable results, typically).
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

// Do executes fn once per key at a time: if another goroutine is already
// running fn for key, Do waits for it and returns its result instead of
// calling fn again. Once the call completes the key is forgotten, so a
// later Do runs fn afresh — callers are expected to consult their own
// cache before invoking Do.
//
// If fn panics, the key is forgotten, every waiter returns an error
// naming the panic, and the panic continues in the goroutine that ran fn.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	c, leader := g.join(key)
	if !leader {
		c.wg.Wait()
		return c.val, c.err
	}
	return g.lead(key, c, fn)
}

// TryDo is Do without the wait: if another goroutine is already running
// fn for key it returns at once with ran false; otherwise it runs fn as
// Do would (concurrent Do callers of key share the result) and reports
// ran true.
func (g *Group[K, V]) TryDo(key K, fn func() (V, error)) (v V, ran bool, err error) {
	c, leader := g.join(key)
	if !leader {
		return v, false, nil
	}
	v, err = g.lead(key, c, fn)
	return v, true, err
}

// join returns key's in-flight call, registering a new one (leader true)
// when there is none.
func (g *Group[K, V]) join(key K) (c *call[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c, false
	}
	if g.m == nil {
		g.m = make(map[K]*call[V])
	}
	c = &call[V]{}
	c.wg.Add(1)
	g.m[key] = c
	return c, true
}

// lead runs fn for the call this goroutine registered, then forgets the
// key and releases the waiters — on a panic in fn too, or they would
// wait forever and every later caller of key with them.
func (g *Group[K, V]) lead(key K, c *call[V], fn func() (V, error)) (V, error) {
	defer func() {
		p := recover()
		if p != nil {
			c.err = fmt.Errorf("flight: call for key %v panicked: %v", key, p)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.wg.Done()
		if p != nil {
			panic(p)
		}
	}()
	c.val, c.err = fn()
	return c.val, c.err
}
