package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	gcke "repro"
	"repro/internal/resultcache"
)

// countingExecutor answers every job with bytes a re-encoding of the
// decoded result would not reproduce (fields out of struct order, most
// of them missing) and counts calls per key.
type countingExecutor struct {
	mu    sync.Mutex
	calls map[string]int
}

func (e *countingExecutor) Execute(ctx context.Context, j *Job, key string) (*gcke.WorkloadResult, json.RawMessage, error) {
	e.mu.Lock()
	e.calls[key]++
	e.mu.Unlock()
	raw := executorBytes(j)
	res := new(gcke.WorkloadResult)
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, nil, err
	}
	return res, raw, nil
}

func (e *countingExecutor) Slots() int { return 3 }

func executorBytes(j *Job) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"TheoreticalWS":%d,"TBPartition":null}`, j.Cycles))
}

// TestRunExecutorGetsEachMissOnce: with an executor set, a fingerprint
// repeated within one call reaches it once, a stored fingerprint never
// does, and the executor's bytes are stored unchanged and durably.
func TestRunExecutorGetsEachMissOnce(t *testing.T) {
	bp, _ := gcke.Benchmark("bp")
	job := func(cycles int64) Job {
		return Job{Config: gcke.ScaledConfig(2), Cycles: cycles, Kernels: []gcke.Kernel{bp}}
	}
	key := func(j Job) string {
		k, err := j.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	a, b, stored := job(1000), job(2000), job(3000)

	path := filepath.Join(t.TempDir(), "j.jsonl")
	store, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key(stored), executorBytes(&stored)); err != nil {
		t.Fatal(err)
	}

	ex := &countingExecutor{calls: map[string]int{}}
	r := New(1)
	r.Cache, r.Executor = store, ex
	res := r.Run(context.Background(), []Job{a, b, a, stored, b, a})
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	store.Close()

	if len(ex.calls) != 2 || ex.calls[key(a)] != 1 || ex.calls[key(b)] != 1 {
		t.Fatalf("executor calls = %v, want each of a and b once and nothing else", ex.calls)
	}
	if !res[3].Cached {
		t.Fatal("stored job not served from the store")
	}
	reopened, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, j := range []Job{a, b} {
		sent := executorBytes(&j)
		if got, _ := reopened.Get(key(j)); !bytes.Equal(got, sent) {
			t.Fatalf("stored %s, executor sent %s", got, sent)
		}
	}
	for _, i := range []int{0, 2, 5} {
		if !bytes.Equal(res[i].Raw, executorBytes(&a)) || res[i].Res.TheoreticalWS != 1000 {
			t.Fatalf("slot %d of the repeated job got %s", i, res[i].Raw)
		}
	}
}
