package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	gcke "repro"
	"repro/internal/ckpt"
	"repro/internal/journal"
)

func ckptJob() Job {
	bp, _ := gcke.Benchmark("bp")
	ks, _ := gcke.Benchmark("ks")
	return Job{
		Config:        gcke.ScaledConfig(2),
		Cycles:        60_000,
		ProfileCycles: 10_000,
		Kernels:       []gcke.Kernel{bp, ks},
		Scheme: gcke.Scheme{
			Partition:    gcke.PartitionEven,
			Limiting:     gcke.LimitStatic,
			StaticLimits: []int{4, 4},
		},
	}
}

// TestCheckpointResumeCycleAccounting is the kill-mid-job acceptance
// test at the runner level: a job interrupted after its first
// checkpoint, re-run against the same store, must resume from a cycle
// strictly between 0 and the total (re-simulating only the tail),
// produce a byte-identical result to a never-interrupted run, and drop
// its checkpoints once the result lands.
func TestCheckpointResumeCycleAccounting(t *testing.T) {
	job := ckptJob()

	// Golden: a clean, checkpoint-free run.
	golden := New(1).Run(context.Background(), []Job{job})
	if err := FirstErr(golden); err != nil {
		t.Fatal(err)
	}
	goldenJS, err := json.Marshal(golden[0].Res)
	if err != nil {
		t.Fatal(err)
	}

	store, err := ckpt.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: cancel as soon as the first checkpoint is durable —
	// a deterministic stand-in for kill -9 mid-job.
	r1 := New(1)
	r1.Checkpoints = store
	r1.CheckpointEvery = 10_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for store.Stats().Saves == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	res1 := r1.Run(ctx, []Job{job})
	cancel()
	if res1[0].Err == nil {
		// The machine outran the canceller; the resume path still gets
		// exercised by the interrupted case on slower hosts, but this
		// run proves nothing — require the interruption.
		t.Fatal("first attempt completed before cancellation; raise Cycles")
	}
	if store.Stats().Saves == 0 {
		t.Fatal("no checkpoint persisted before interruption")
	}

	// Second attempt: same store, fresh runner (a new process).
	r2 := New(1)
	r2.Checkpoints = store
	r2.CheckpointEvery = 10_000
	res2 := r2.Run(context.Background(), []Job{job})
	if err := FirstErr(res2); err != nil {
		t.Fatal(err)
	}
	if res2[0].ResumedFrom <= 0 || res2[0].ResumedFrom >= job.Cycles {
		t.Fatalf("ResumedFrom = %d, want in (0, %d): the resume must skip a strict prefix", res2[0].ResumedFrom, job.Cycles)
	}
	resumes, resumedCycles := r2.CkptStats()
	if resumes != 1 || resumedCycles != res2[0].ResumedFrom {
		t.Fatalf("CkptStats = (%d, %d), want (1, %d)", resumes, resumedCycles, res2[0].ResumedFrom)
	}
	js, err := json.Marshal(res2[0].Res)
	if err != nil {
		t.Fatal(err)
	}
	if string(js) != string(goldenJS) {
		t.Fatalf("resumed result diverged from uninterrupted run:\nresumed: %s\ngolden:  %s", js, goldenJS)
	}
	// Success drops the job's checkpoints.
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := store.Latest(key); ok {
		t.Fatal("checkpoints not dropped after the result became durable")
	}
	if store.Stats().Drops == 0 {
		t.Fatal("drop counter not bumped")
	}
}

// TestCheckpointsDoNotOutliveTheJob: saves are write-behind, so the
// runner's Drop must still come after the last of them. A completed job
// leaves the store's directory empty — no checkpoint, no temp file — and
// wrote exactly the checkpoints strictly inside it (the serve bench's
// shape, a checkpoint every half job, and one every third).
func TestCheckpointsDoNotOutliveTheJob(t *testing.T) {
	job := ckptJob()
	job.Cycles = 20_000
	job.ProfileCycles = 6_000
	for _, tc := range []struct {
		every, saves int64
	}{
		{job.Cycles / 2, 1}, // 10000
		{job.Cycles / 3, 3}, // 6666, 13332, 19998
	} {
		dir := t.TempDir()
		store, err := ckpt.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := New(1)
		r.Checkpoints = store
		r.CheckpointEvery = tc.every
		if err := FirstErr(r.Run(context.Background(), []Job{job})); err != nil {
			t.Fatal(err)
		}
		if st := store.Stats(); st.Saves != tc.saves {
			t.Fatalf("every %d: %d saves, want %d", tc.every, st.Saves, tc.saves)
		}
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("every %d: %d files outlived the completed job, first %s", tc.every, len(left), left[0].Name())
		}
	}
}

// TestCheckpointIneligibleSchemesRunNormally: hook-driven and warmup
// schemes are silently ineligible — same results, no checkpoints, no
// resume.
func TestCheckpointIneligibleSchemesRunNormally(t *testing.T) {
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	job := Job{
		Config:        gcke.ScaledConfig(2),
		Cycles:        15_000,
		ProfileCycles: 10_000,
		Kernels:       []gcke.Kernel{bp, sv},
		Scheme:        gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL, TBThrottle: true},
	}
	golden := New(1).Run(context.Background(), []Job{job})
	if err := FirstErr(golden); err != nil {
		t.Fatal(err)
	}

	store, err := ckpt.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	r.Checkpoints = store
	r.CheckpointEvery = 1_000
	got := r.Run(context.Background(), []Job{job})
	if err := FirstErr(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden[0].Res, got[0].Res) {
		t.Fatal("ineligible scheme's result changed under a configured checkpoint store")
	}
	if got[0].ResumedFrom != 0 {
		t.Fatalf("ineligible scheme reported ResumedFrom=%d", got[0].ResumedFrom)
	}
	if st := store.Stats(); st.Saves != 0 {
		t.Fatalf("ineligible scheme persisted %d checkpoints", st.Saves)
	}
}

// TestFreshBypassesCacheAndJournal: a Fresh job re-simulates even when
// the journal already holds its fingerprint, and writes nothing back.
func TestFreshBypassesCacheAndJournal(t *testing.T) {
	j, err := journal.Open(filepath.Join(t.TempDir(), "fresh.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	job := Job{Session: testSession(t), Kernels: []gcke.Kernel{bp, sv},
		Scheme: gcke.Scheme{Partition: gcke.PartitionEven}}

	r := New(1)
	r.Journal = j
	first := r.Run(context.Background(), []Job{job})
	if err := FirstErr(first); err != nil {
		t.Fatal(err)
	}
	if first[0].Replayed {
		t.Fatal("first run replayed")
	}

	// Same job again: replayed from the journal.
	replay := r.Run(context.Background(), []Job{job})
	if !replay[0].Replayed {
		t.Fatal("repeat run did not replay from journal")
	}

	// Fresh: must simulate despite the journal entry, and not append.
	fresh := job
	fresh.Fresh = true
	before := j.Len()
	res := r.Run(context.Background(), []Job{fresh})
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	if res[0].Replayed || res[0].Cached {
		t.Fatal("fresh run served from storage")
	}
	if j.Len() != before {
		t.Fatal("fresh run wrote to the journal")
	}
	if res[0].Key != first[0].Key {
		t.Fatalf("Fresh changed the fingerprint: %q vs %q", res[0].Key, first[0].Key)
	}
	a, _ := json.Marshal(first[0].Res)
	b, _ := json.Marshal(res[0].Res)
	if string(a) != string(b) {
		t.Fatal("fresh re-execution diverged from the original run")
	}
}
