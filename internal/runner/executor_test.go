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
	"repro/internal/journal"
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
// repeated within one call reaches it once, a journaled or cached
// fingerprint never does, and the executor's bytes are journaled and
// cached unchanged.
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
	a, b, journaled, cached := job(1000), job(2000), job(3000), job(4000)

	jnl, err := journal.Open(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	cache, _ := resultcache.Open(resultcache.Options{})
	if err := jnl.AppendRaw(key(journaled), executorBytes(&journaled)); err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(key(cached), executorBytes(&cached)); err != nil {
		t.Fatal(err)
	}

	ex := &countingExecutor{calls: map[string]int{}}
	r := New(1)
	r.Journal, r.Cache, r.Executor = jnl, cache, ex
	res := r.Run(context.Background(), []Job{a, b, a, journaled, cached, b, a})
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}

	if len(ex.calls) != 2 || ex.calls[key(a)] != 1 || ex.calls[key(b)] != 1 {
		t.Fatalf("executor calls = %v, want each of a and b once and nothing else", ex.calls)
	}
	if !res[3].Replayed || !res[4].Cached {
		t.Fatalf("journaled/cached jobs not served from store: replayed=%v cached=%v", res[3].Replayed, res[4].Cached)
	}
	for _, j := range []Job{a, b} {
		sent := executorBytes(&j)
		if got, _ := jnl.Raw(key(j)); !bytes.Equal(got, sent) {
			t.Fatalf("journaled %s, executor sent %s", got, sent)
		}
		if got, _ := cache.Get(key(j)); !bytes.Equal(got, sent) {
			t.Fatalf("cached %s, executor sent %s", got, sent)
		}
	}
	for _, i := range []int{0, 2, 6} {
		if !bytes.Equal(res[i].Raw, executorBytes(&a)) || res[i].Res.TheoreticalWS != 1000 {
			t.Fatalf("slot %d of the repeated job got %s", i, res[i].Raw)
		}
	}
}
