package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/ckpt"
	"repro/internal/resultcache"
)

// postFull POSTs req to /jobs?full=1 (plus query) and returns the decoded
// reply; Result holds the result's bytes exactly as they came over the wire.
func postFull(t *testing.T, ts *httptest.Server, req JobRequest, query string) JobResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs?full=1"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, decode error %v", resp.StatusCode, err)
	}
	if len(out.Result) == 0 || resultcache.Digest(out.Result) != out.Digest {
		t.Fatalf("reply's digest %q does not cover its %d result bytes", out.Digest, len(out.Result))
	}
	return out
}

// TestResultBytesOnce: a result is encoded when it is simulated and those
// bytes are what the store's line, the first reply and every repeat
// carry; fresh=1 goes around the store; the chaos liar is the one reply
// that differs, and it is self-consistent.
func TestResultBytesOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	cache := newCache(t, path)
	srv := New(Config{Workers: 1, Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	miss := postFull(t, ts, smallJob(5), "")
	if miss.Cached || miss.Attempts != 1 {
		t.Fatalf("first-seen job: %+v", miss)
	}
	hit := postFull(t, ts, smallJob(5), "")
	if !hit.Cached || hit.Attempts != 0 {
		t.Fatalf("repeat was not a cache hit: cached=%v attempts=%d", hit.Cached, hit.Attempts)
	}
	if !bytes.Equal(hit.Result, miss.Result) || hit.Digest != miss.Digest {
		t.Fatalf("the hit's result bytes differ from the miss's:\n%s\n%s", hit.Result, miss.Result)
	}
	if file, _ := os.ReadFile(path); !bytes.Contains(file, append([]byte(`"val":`), miss.Result...)) {
		t.Fatalf("the store's line holds other bytes than the reply carried:\n%s", file)
	}
	if raw, ok := cache.Get(miss.Key); !ok || !bytes.Equal(raw, miss.Result) {
		t.Fatalf("the store serves other bytes than the reply carried:\n%s", raw)
	}

	before := cache.Stats()
	fresh := postFull(t, ts, smallJob(5), "&fresh=1")
	if fresh.Cached || fresh.Attempts != 1 {
		t.Fatalf("fresh=1 did not simulate: %+v", fresh)
	}
	if !bytes.Equal(fresh.Result, miss.Result) {
		t.Fatal("a fresh run of the same job produced other bytes")
	}
	if after := cache.Stats(); after != before || cache.Len() != 1 {
		t.Fatalf("fresh=1 touched the store: %+v -> %+v, len %d", before, after, cache.Len())
	}

	liar := New(Config{Workers: 1, Chaos: chaos.New(chaos.Config{Seed: 3, CorruptProb: 1, Failures: 1})})
	lts := httptest.NewServer(liar.Handler())
	defer lts.Close()
	lie := postFull(t, lts, smallJob(5), "") // postFull checked its digest
	if bytes.Equal(lie.Result, miss.Result) || liar.StatsSnapshot().Corrupted != 1 {
		t.Fatalf("the chaos reply is the honest one (corrupted=%d)", liar.StatsSnapshot().Corrupted)
	}
}

// TestAllocGaugeWithoutStoppingTheWorld: /statz's allocs-per-cycle gauge
// still counts what a simulated job allocates, and no source file of the
// package reads it the stop-the-world way.
func TestAllocGaugeWithoutStoppingTheWorld(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// The counter lags by what each P's allocation cache has not flushed
	// yet, and a job on recycled machine memory allocates only hundreds
	// of objects, so one job may read as no rise at all; a few must not.
	for n := 1; srv.simAllocs.Load() <= 0; n++ {
		if n > 20 {
			t.Fatal("allocation count still 0 after 20 simulated jobs")
		}
		if status, out := postJob(t, ts, smallJob(n)); status != http.StatusOK {
			t.Fatalf("job failed: %d %+v", status, out)
		}
	}
	if st := srv.StatsSnapshot(); st.AllocsPerCycle <= 0 {
		t.Fatalf("allocs_per_cycle = %v with a positive allocation count", st.AllocsPerCycle)
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(f, "_test.go") && bytes.Contains(src, []byte("ReadMem"+"Stats")) {
			t.Fatalf("%s reads runtime memory statistics by stopping the world", f)
		}
	}
}

// TestCheckpointFieldsAreInert: every job runs from cycle 0, so a server
// given a checkpoint store and an interval of half the job serves the
// bytes one without them serves, writes nothing into the store's
// directory and reports no checkpoint gauge.
func TestCheckpointFieldsAreInert(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := smallJob(5)
	with := New(Config{Workers: 1, Checkpoints: store, CheckpointEvery: job.Cycles / 2})
	wts := httptest.NewServer(with.Handler())
	defer wts.Close()
	plain := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer plain.Close()

	got, want := postFull(t, wts, job, ""), postFull(t, plain, job, "")
	if got.Attempts != 1 || !bytes.Equal(got.Result, want.Result) {
		t.Fatalf("with a checkpoint store: attempts %d, result bytes equal %v", got.Attempts, bytes.Equal(got.Result, want.Result))
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("the store's directory holds %d entries (%v), want none", len(files), err)
	}
	resp, err := wts.Client().Get(wts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statz map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	for k := range statz {
		if strings.HasPrefix(k, "ckpt_") {
			t.Errorf("/statz reports %s", k)
		}
	}
}
