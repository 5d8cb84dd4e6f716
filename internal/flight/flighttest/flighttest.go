// Package flighttest lets tests of flight.Group and of its users gate on
// "a goroutine is parked on an in-flight call" instead of on timing.
package flighttest

import (
	"runtime"
	"strings"
	"time"
)

// waitersInDo counts the goroutines inside flight.Group.Do that wait on
// an in-flight call. A goroutine only calls WaitGroup.Wait there after it
// has looked the call up, so once it is counted it is certain to share
// the leader's result.
func waitersInDo() int {
	recs := make([]runtime.StackRecord, 64)
	n, ok := runtime.GoroutineProfile(recs)
	for !ok {
		recs = make([]runtime.StackRecord, 2*n)
		n, ok = runtime.GoroutineProfile(recs)
	}
	waiters := 0
	for _, rec := range recs[:n] {
		frames := runtime.CallersFrames(rec.Stack())
		inWait := false
		for {
			f, more := frames.Next()
			if f.Function == "sync.(*WaitGroup).Wait" {
				inWait = true
			} else if inWait && strings.Contains(f.Function, "flight.(*Group") {
				waiters++
				break
			}
			if !more {
				break
			}
		}
	}
	return waiters
}

// AwaitWaitersInDo returns once at least n goroutines wait in Do. It
// sleeps between polls: a goroutine profile stops the world, and the
// goroutines being waited for may have simulations to run first.
func AwaitWaitersInDo(n int) {
	for waitersInDo() < n {
		time.Sleep(200 * time.Microsecond)
	}
}
