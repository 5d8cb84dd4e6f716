package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestBurstAdmissionExactLimitNoSlotLeak: N concurrent POSTs against a
// 1-worker server with hung jobs admit exactly Workers+QueueDepth, shed
// the rest with a coherent Retry-After, and leak no admission or engine
// slot once the burst drains. Run under -race in CI.
func TestBurstAdmissionExactLimitNoSlotLeak(t *testing.T) {
	const burst = 12
	srv := New(Config{
		Workers: 1, QueueDepth: 2,
		JobTimeout: time.Hour,
		Chaos:      chaos.New(chaos.Config{Seed: 5, HangProb: 1, Hang: time.Hour, Failures: 1 << 30}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	limit := srv.cfg.Workers + srv.cfg.QueueDepth

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var shed, badRetryAfter atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			body, _ := json.Marshal(smallJob(300 + n))
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/jobs", bytes.NewReader(body))
			resp, err := ts.Client().Do(req)
			if err != nil {
				return // admitted-then-cancelled below
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				shed.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					badRetryAfter.Add(1)
				}
			}
		}(i)
	}

	// Hung jobs never finish, so admission counts are stable once every
	// request has either claimed a slot or been shed — wait for the shed
	// clients to finish reading their 429s too, or the cancel below
	// races their response bodies.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.StatsSnapshot()
		if st.Accepted+st.ShedQueue == burst && shed.Load() == st.ShedQueue {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst never settled: server %+v, client sheds %d", st, shed.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := srv.StatsSnapshot()
	if st.Accepted != int64(limit) {
		t.Fatalf("accepted = %d, want exactly limit %d", st.Accepted, limit)
	}
	if st.ShedQueue != int64(burst-limit) {
		t.Fatalf("shed = %d, want %d", st.ShedQueue, burst-limit)
	}

	cancel() // release the hung requests
	wg.Wait()
	if got := shed.Load(); got != int64(burst-limit) {
		t.Fatalf("client-observed 429s = %d, want %d", got, burst-limit)
	}
	if badRetryAfter.Load() != 0 {
		t.Fatalf("%d sheds arrived without Retry-After", badRetryAfter.Load())
	}
	// No admission-slot leak: queued must return to zero...
	deadline = time.Now().Add(10 * time.Second)
	for srv.StatsSnapshot().Queued != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission slots leaked: %+v", srv.StatsSnapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// ...and no engine-slot leak: the slot channel must fully drain.
	deadline = time.Now().Add(10 * time.Second)
	for len(srv.slots) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine slots leaked: %d still held", len(srv.slots))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDeadlineShedOnArrival: once the estimator has a service time, a
// job whose deadline cannot fit even one run is shed at arrival with 429 + Retry-After and the distinct shed_deadline counter
// — it never touches the admission queue.
func TestDeadlineShedOnArrival(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the estimator with a real run.
	warm := smallJob(4)
	if status, out := postJob(t, ts, warm); status != http.StatusOK {
		t.Fatalf("warm job status %d, body %+v", status, out)
	}

	// Microscopic deadline: the estimate alone overruns it.
	doomed := smallJob(5)
	doomed.Deadline = "1ns"
	body, _ := json.Marshal(doomed)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline shed without Retry-After")
	}
	st := srv.StatsSnapshot()
	if st.ShedDeadline != 1 {
		t.Fatalf("shed_deadline = %d, want 1", st.ShedDeadline)
	}
	if st.ShedQueue != 0 {
		t.Fatalf("deadline shed miscounted as queue shed: %+v", st)
	}

	// A meetable deadline is admitted and served.
	fine := smallJob(6)
	fine.Deadline = "1h"
	if status, out := postJob(t, ts, fine); status != http.StatusOK {
		t.Fatalf("meetable-deadline job status %d, body %+v", status, out)
	}
}

// TestDeadlineShedPricesNeverServedMix: the one estimate prices every
// job, so a deadline job of a kernel mix the server has never run is
// shed on arrival when the estimate says it cannot fit — it is not
// admitted blind for want of a sample of its own.
func TestDeadlineShedPricesNeverServedMix(t *testing.T) {
	srv := New(Config{Workers: 1})
	srv.est.Observe(time.Hour)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	unseen := smallJob(4)
	unseen.Kernels = []string{"sv", "ax"}
	unseen.Deadline = "1m"
	body, _ := json.Marshal(unseen)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if st := srv.StatsSnapshot(); st.ShedDeadline != 1 || st.Accepted != 0 {
		t.Fatalf("shed_deadline = %d, accepted = %d; want 1 and 0", st.ShedDeadline, st.Accepted)
	}
}

// TestDeadlineStaleDroppedAtDequeue: a job whose deadline became
// unmeetable while it waited for an engine slot is dropped by the
// dequeue-time re-check (ErrStale) before it burns the slot.
func TestDeadlineStaleDroppedAtDequeue(t *testing.T) {
	srv := New(Config{Workers: 1})
	req := smallJob(4)
	job, key, _, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A job is known to cost an hour; the deadline is 50ms out. The
	// arrival check was passed when the queue was shorter — by dequeue
	// the budget no longer fits one run.
	srv.est.Observe(time.Hour)
	res, attempts := srv.executeSlot(context.Background(), job, key, time.Now().Add(50*time.Millisecond))
	if !errors.Is(res.Err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", res.Err)
	}
	if attempts != 0 {
		t.Fatalf("stale job burned %d attempts, want 0", attempts)
	}
	if got := srv.StatsSnapshot().ShedDeadline; got != 1 {
		t.Fatalf("shed_deadline = %d, want 1", got)
	}
	// A deadline already in the past is stale regardless of estimates.
	srv2 := New(Config{Workers: 1})
	res, _ = srv2.executeSlot(context.Background(), job, key, time.Now().Add(-time.Second))
	if !errors.Is(res.Err, ErrStale) {
		t.Fatalf("past-deadline err = %v, want ErrStale", res.Err)
	}
}

// TestDeadlineMissedNeverServedAsSuccess: a simulation that finishes
// after its deadline is returned as 504 (ErrDeadlineMiss), not 200 —
// even when nothing cancelled it mid-run.
func TestDeadlineMissedNeverServedAsSuccess(t *testing.T) {
	srv := New(Config{Workers: 1})
	req := smallJob(4)
	job, key, _, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Deadline a hair in the future: any real simulation takes far
	// longer, so the run completes past it and hits the guard.
	res, attempts := srv.execute(context.Background(), job, key, time.Now().Add(time.Microsecond))
	if !errors.Is(res.Err, ErrDeadlineMiss) {
		t.Fatalf("err = %v, want ErrDeadlineMiss", res.Err)
	}
	if attempts == 0 {
		t.Fatal("guard fired without an attempt")
	}
	if got := statusOf(res.Err); got != http.StatusGatewayTimeout {
		t.Fatalf("statusOf(ErrDeadlineMiss) = %d, want 504", got)
	}
	st := srv.StatsSnapshot()
	if st.DeadlineLate != 1 || st.Completed != 0 {
		t.Fatalf("late success leaked into goodput: %+v", st)
	}
}

// TestStatzOverloadGaugesMoveUnderLoad: the /statz overload fields —
// queue-wait percentiles, shed_deadline — move when
// the server is actually loaded, end-to-end through the HTTP surface.
func TestStatzOverloadGaugesMoveUnderLoad(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Contend: 3 concurrent jobs on 1 worker, so two of them queue and
	// the wait ring records real waits.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			body, _ := json.Marshal(smallJob(400 + n))
			resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	// One deadline shed so the counter moves.
	doomed := smallJob(4)
	doomed.Deadline = "1ns"
	body, _ := json.Marshal(doomed)
	if resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body)); err == nil {
		resp.Body.Close()
	}

	resp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.QueueWaitP95Ms <= 0 {
		t.Fatalf("queue_wait_ms_p95 = %v after contended load, want > 0", st.QueueWaitP95Ms)
	}
	if st.QueueWaitP50Ms > st.QueueWaitP95Ms || st.QueueWaitP95Ms > st.QueueWaitP99Ms {
		t.Fatalf("percentiles out of order: p50=%v p95=%v p99=%v",
			st.QueueWaitP50Ms, st.QueueWaitP95Ms, st.QueueWaitP99Ms)
	}
	if st.ShedDeadline != 1 {
		t.Fatalf("shed_deadline = %d, want 1", st.ShedDeadline)
	}
}
