package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	gcke "repro"
	"repro/internal/journal"
)

func testJobs(t *testing.T, s *gcke.Session) []Job {
	t.Helper()
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	ks, _ := gcke.Benchmark("ks")
	schemes := []gcke.Scheme{
		{Partition: gcke.PartitionWarpedSlicer},
		{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL},
		{Partition: gcke.PartitionSMK, MemIssue: gcke.MemIssueQBMI},
		{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitStatic, StaticLimits: []int{4, 8}},
	}
	var jobs []Job
	for _, wl := range [][]gcke.Kernel{{bp, sv}, {bp, ks}} {
		for _, sc := range schemes {
			jobs = append(jobs, Job{Session: s, Kernels: wl, Scheme: sc})
		}
	}
	return jobs
}

func testSession(t *testing.T) *gcke.Session {
	t.Helper()
	s := gcke.NewSession(gcke.ScaledConfig(2), 15_000)
	s.ProfileCycles = 10_000
	return s
}

// TestParallelMatchesSerial pins the "parallelism never changes results"
// contract: the same (workload, scheme) grid run twice serially and once
// through the parallel pool must produce identical RunResult stats.
func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	serial1 := New(1).Run(ctx, testJobs(t, testSession(t)))
	serial2 := New(1).Run(ctx, testJobs(t, testSession(t)))
	parallel := New(8).Run(ctx, testJobs(t, testSession(t)))

	if err := FirstErr(serial1); err != nil {
		t.Fatal(err)
	}
	for i := range serial1 {
		if serial2[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errors: serial=%v parallel=%v", i, serial2[i].Err, parallel[i].Err)
		}
		a, b, c := serial1[i].Res, serial2[i].Res, parallel[i].Res
		if !reflect.DeepEqual(*a.RunResult, *b.RunResult) {
			t.Fatalf("job %d: serial reruns disagree (engine not deterministic)", i)
		}
		if !reflect.DeepEqual(*a.RunResult, *c.RunResult) {
			t.Fatalf("job %d: parallel run disagrees with serial", i)
		}
		if !reflect.DeepEqual(a.IsolatedIPC, c.IsolatedIPC) {
			t.Fatalf("job %d: isolated IPCs differ: %v vs %v", i, a.IsolatedIPC, c.IsolatedIPC)
		}
		if !reflect.DeepEqual(a.TBPartition, c.TBPartition) {
			t.Fatalf("job %d: partitions differ: %v vs %v", i, a.TBPartition, c.TBPartition)
		}
		if a.WeightedSpeedup() != c.WeightedSpeedup() {
			t.Fatalf("job %d: WS %v vs %v", i, a.WeightedSpeedup(), c.WeightedSpeedup())
		}
		if serial1[i].Key == "" || serial1[i].Key != parallel[i].Key {
			t.Fatalf("job %d: fingerprints differ: %q vs %q", i, serial1[i].Key, parallel[i].Key)
		}
	}
}

// TestSharedSessionUnderConcurrency hammers one session's profile cache
// from many jobs needing the same profiles; with -race this doubles as
// the Session thread-safety check.
func TestSharedSessionUnderConcurrency(t *testing.T) {
	s := testSession(t)
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{Session: s, Kernels: []gcke.Kernel{bp, sv},
			Scheme: gcke.Scheme{Partition: gcke.PartitionEven}}
	}
	results := New(6).Run(context.Background(), jobs)
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(*results[0].Res.RunResult, *results[i].Res.RunResult) {
			t.Fatalf("identical jobs %d disagree", i)
		}
	}
	// The shared full-occupancy profiles must be cached as one object.
	r1, err := s.RunIsolated(bp)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunIsolated(bp)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("isolated profile not cached after concurrent runs")
	}
}

func TestRunnerDerivesAndDedupsSessions(t *testing.T) {
	r := New(4)
	cfg := gcke.ScaledConfig(2)
	s1, err := r.Session(cfg, 15_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Session(cfg, 15_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("equal machine descriptions must share a session")
	}
	if s3, _ := r.Session(cfg, 20_000, 10_000); s3 == s1 {
		t.Fatal("different cycles must not share a session")
	}
	if s4, _ := r.Session(gcke.ScaledConfig(4), 15_000, 10_000); s4 == s1 {
		t.Fatal("different configs must not share a session")
	}

	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	res := r.Run(context.Background(), []Job{{
		Config: cfg, Cycles: 15_000, ProfileCycles: 10_000,
		Kernels: []gcke.Kernel{bp, sv},
		Scheme:  gcke.Scheme{Partition: gcke.PartitionEven},
	}})
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	// The job ran against the deduplicated session, so its profiles are
	// now cached there.
	if _, err := s1.RunIsolated(bp); err != nil {
		t.Fatal(err)
	}
}

func TestRunReportsErrorsInOrder(t *testing.T) {
	s := testSession(t)
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	good := Job{Session: s, Kernels: []gcke.Kernel{bp, sv},
		Scheme: gcke.Scheme{Partition: gcke.PartitionEven}}
	bad := Job{Session: s, Kernels: []gcke.Kernel{bp, sv},
		Scheme: gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitStatic}}
	results := New(4).Run(context.Background(), []Job{good, bad, good})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good jobs failed: %v %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("invalid scheme accepted")
	}
	if err := FirstErr(results); err != results[1].Err {
		t.Fatalf("FirstErr = %v, want job 1's error", err)
	}
	if got := Errs(results); len(got) != 1 || got[0] != results[1].Err {
		t.Fatalf("Errs = %v, want exactly job 1's error", got)
	}
}

// TestRunRecoversPanicIntoJobError pins panic isolation: one poisoned
// job must fail with an attributed *PanicError while every other point
// in the grid completes normally.
func TestRunRecoversPanicIntoJobError(t *testing.T) {
	testJobHook = func(i int, j *Job) {
		if i == 2 {
			panic("injected worker fault")
		}
	}
	defer func() { testJobHook = nil }()

	jobs := testJobs(t, testSession(t))
	results := New(4).Run(context.Background(), jobs)
	for i, res := range results {
		if i == 2 {
			continue
		}
		if res.Err != nil {
			t.Fatalf("job %d poisoned by job 2's panic: %v", i, res.Err)
		}
		if res.Res == nil {
			t.Fatalf("job %d missing result", i)
		}
	}
	var pe *PanicError
	if !errors.As(results[2].Err, &pe) {
		t.Fatalf("job 2 error is %T, want *PanicError", results[2].Err)
	}
	if pe.Index != 2 || pe.Key == "" || len(pe.Stack) == 0 {
		t.Fatalf("panic not attributed: index=%d key=%q stack=%d bytes", pe.Index, pe.Key, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "injected worker fault") {
		t.Fatalf("panic value lost: %v", pe)
	}
}

// TestRunCollapsesDuplicateFingerprints: N copies of one job plus one
// distinct job simulate once per fingerprint, every slot gets its key's
// result in submission order, and with a journal attached each key is
// journaled once and a rerun replays all slots without simulating.
func TestRunCollapsesDuplicateFingerprints(t *testing.T) {
	var sims atomic.Int32
	var ran [8]atomic.Int32
	testJobHook = func(i int, j *Job) {
		sims.Add(1)
		ran[i].Add(1)
	}
	defer func() { testJobHook = nil }()

	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	s := testSession(t)
	dup := Job{Session: s, Kernels: []gcke.Kernel{bp, sv}, Scheme: gcke.Scheme{Partition: gcke.PartitionEven}}
	other := dup
	other.Scheme = gcke.Scheme{Partition: gcke.PartitionLeftover}
	// Slots 0-2 and 4-6 share a fingerprint; slot 3 is the distinct job.
	jobs := []Job{dup, dup, dup, other, dup, dup, dup}
	check := func(name string, results []Result, wantSims int32, replayed bool) {
		t.Helper()
		if err := FirstErr(results); err != nil {
			t.Fatal(err)
		}
		if got := sims.Load(); got != wantSims {
			t.Fatalf("%s: %d simulations, want %d", name, got, wantSims)
		}
		for i, res := range results {
			want := results[0]
			if i == 3 {
				want = results[3]
				if res.Key == results[0].Key {
					t.Fatalf("%s: distinct job shares slot 0's fingerprint", name)
				}
			}
			if res.Key != want.Key || !bytes.Equal(res.Raw, want.Raw) || res.Replayed != replayed {
				t.Fatalf("%s: slot %d = {%s replayed=%v}, want {%s replayed=%v} and equal bytes",
					name, i, res.Key, res.Replayed, want.Key, replayed)
			}
			if !reflect.DeepEqual(*res.Res.RunResult, *want.Res.RunResult) {
				t.Fatalf("%s: slot %d result differs from its key's first slot", name, i)
			}
		}
	}

	for _, workers := range []int{1, 4} {
		sims.Store(0)
		for i := range ran {
			ran[i].Store(0)
		}
		check(fmt.Sprintf("workers=%d", workers), New(workers).Run(context.Background(), jobs), 2, false)
		if ran[0].Load() != 1 || ran[3].Load() != 1 {
			t.Fatalf("workers=%d: simulations not attributed to the first index of each key", workers)
		}
	}

	path := filepath.Join(t.TempDir(), "dup.journal")
	j1, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r := New(4)
	r.Journal = j1
	sims.Store(0)
	check("journal", r.Run(context.Background(), jobs), 2, false)
	if j1.Len() != 2 {
		t.Fatalf("journal holds %d entries, want one per fingerprint (2)", j1.Len())
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	r = New(4)
	r.Journal = j2
	sims.Store(0)
	check("replay", r.Run(context.Background(), jobs), 0, true)
}

// TestRunHonorsCancellation: a cancelled context marks every
// not-yet-finished job with the cancellation instead of running it.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		results := New(workers).Run(ctx, testJobs(t, testSession(t)))
		for i, res := range results {
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("workers=%d job %d: err=%v, want context.Canceled", workers, i, res.Err)
			}
		}
	}
}

// TestRunPerJobTimeout: with a tiny per-job deadline, long simulations
// fail with context.DeadlineExceeded (wrapped over gpu.ErrInterrupted)
// rather than hanging the sweep.
func TestRunPerJobTimeout(t *testing.T) {
	// A session big enough that the run cannot finish in a millisecond.
	s := gcke.NewSession(gcke.ScaledConfig(2), 50_000_000)
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	r := New(2)
	r.Timeout = time.Millisecond
	results := r.Run(context.Background(), []Job{{
		Session: s, Kernels: []gcke.Kernel{bp, sv},
		Scheme: gcke.Scheme{Partition: gcke.PartitionEven},
	}})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", results[0].Err)
	}
}

// TestRunJournalResume pins journal resume: a partially journaled
// grid, resumed by a fresh runner and session against the same journal,
// replays the finished points and produces results identical to an
// uninterrupted run.
func TestRunJournalResume(t *testing.T) {
	jobs := testJobs(t, testSession(t))
	golden := New(4).Run(context.Background(), testJobs(t, testSession(t)))
	if err := FirstErr(golden); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	j1, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// "Interrupted" first attempt: only the first three points finish.
	r1 := New(4)
	r1.Journal = j1
	if err := FirstErr(r1.Run(context.Background(), jobs[:3])); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume in a "new process": fresh runner, fresh session, same file.
	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	r2 := New(4)
	r2.Journal = j2
	resumed := r2.Run(context.Background(), testJobs(t, testSession(t)))
	if err := FirstErr(resumed); err != nil {
		t.Fatal(err)
	}
	for i := range golden {
		if want := i < 3; resumed[i].Replayed != want {
			t.Fatalf("job %d: Replayed=%v, want %v", i, resumed[i].Replayed, want)
		}
		a, b := golden[i].Res, resumed[i].Res
		if !reflect.DeepEqual(*a.RunResult, *b.RunResult) {
			t.Fatalf("job %d: resumed stats differ from uninterrupted run", i)
		}
		if !reflect.DeepEqual(a.IsolatedIPC, b.IsolatedIPC) ||
			!reflect.DeepEqual(a.TBPartition, b.TBPartition) ||
			a.TheoreticalWS != b.TheoreticalWS {
			t.Fatalf("job %d: resumed metadata differs", i)
		}
		if a.WeightedSpeedup() != b.WeightedSpeedup() {
			t.Fatalf("job %d: WS %v vs %v", i, a.WeightedSpeedup(), b.WeightedSpeedup())
		}
	}
	// Every point is journaled now; a third pass simulates nothing.
	if j2.Len() != len(jobs) {
		t.Fatalf("journal holds %d entries, want %d", j2.Len(), len(jobs))
	}
}

// TestJobKeyStability: the fingerprint must not depend on whether the
// machine is described inline or via a derived session, and must change
// when any dimension of the point changes.
func TestJobKeyStability(t *testing.T) {
	cfg := gcke.ScaledConfig(2)
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	inline := Job{Config: cfg, Cycles: 15_000, ProfileCycles: 10_000,
		Kernels: []gcke.Kernel{bp, sv}, Scheme: gcke.Scheme{Partition: gcke.PartitionEven}}
	s := gcke.NewSession(cfg, 15_000)
	s.ProfileCycles = 10_000
	viaSession := inline
	viaSession.Session = s

	k1, err := inline.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := viaSession.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("same point fingerprints differently: %q vs %q", k1, k2)
	}
	other := inline
	other.Scheme = gcke.Scheme{Partition: gcke.PartitionSMK}
	if k3, _ := other.Key(); k3 == k1 {
		t.Fatal("different schemes share a fingerprint")
	}
	longer := inline
	longer.Cycles = 20_000
	if k4, _ := longer.Key(); k4 == k1 {
		t.Fatal("different run lengths share a fingerprint")
	}
}

func TestMapCoversAllIndicesOnce(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 3, 16} {
		const n = 100
		counts := make([]atomic.Int32, n)
		Map(ctx, workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	Map(ctx, 4, 0, func(i int) { t.Fatal("fn called for n=0") })
}

func TestMapErrReturnsFirstByIndex(t *testing.T) {
	ctx := context.Background()
	err := MapErr(ctx, 8, 10, func(i int) error {
		if i == 3 || i == 7 {
			return errIndex(i)
		}
		return nil
	})
	if err != errIndex(3) {
		t.Fatalf("err = %v, want index 3", err)
	}
	if err := MapErr(ctx, 8, 10, func(i int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

// TestMapErrRecoversPanic: a panicking index fails alone, as a
// *PanicError, and the other indices still run.
func TestMapErrRecoversPanic(t *testing.T) {
	var ran atomic.Int32
	err := MapErr(context.Background(), 4, 10, func(i int) error {
		if i == 5 {
			panic("boom")
		}
		ran.Add(1)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 5 {
		t.Fatalf("err = %v, want *PanicError at index 5", err)
	}
	if ran.Load() != 9 {
		t.Fatalf("%d indices ran, want 9", ran.Load())
	}
}

// TestMapErrCancellation: indices never dispatched under a cancelled
// context report the context error, not silent success.
func TestMapErrCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := MapErr(ctx, 4, 10, func(i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

type errIndex int

func (e errIndex) Error() string { return "error at index" }
